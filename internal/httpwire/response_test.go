package httpwire

import (
	"bytes"
	"strings"
	"testing"
)

func TestResponseWriteTo(t *testing.T) {
	var buf bytes.Buffer
	resp := Response{
		Status:      StatusOK,
		ContentType: "text/html; charset=utf-8",
		Body:        []byte("<html>hi</html>"),
		KeepAlive:   true,
	}
	if err := resp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "HTTP/1.1 200 OK\r\n") {
		t.Fatalf("status line wrong: %q", out)
	}
	if !strings.Contains(out, "Content-Length: 15\r\n") {
		t.Fatalf("missing exact Content-Length: %q", out)
	}
	if !strings.Contains(out, "Connection: keep-alive\r\n") {
		t.Fatalf("missing keep-alive: %q", out)
	}
	if !strings.HasSuffix(out, "\r\n\r\n<html>hi</html>") {
		t.Fatalf("body not after blank line: %q", out)
	}
}

func TestResponseDefaultsAndClose(t *testing.T) {
	var buf bytes.Buffer
	resp := Response{Status: StatusNotFound, Body: []byte("nope")}
	if err := resp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "404 Not Found") {
		t.Fatalf("reason phrase missing: %q", out)
	}
	if !strings.Contains(out, "Connection: close") {
		t.Fatalf("close expected by default: %q", out)
	}
	if !strings.Contains(out, "Content-Type: text/html; charset=utf-8") {
		t.Fatalf("default content type missing: %q", out)
	}
}

func TestResponseExtraHeaders(t *testing.T) {
	var buf bytes.Buffer
	resp := Response{
		Status: StatusFound,
		Extra:  Header{{"Location", "/home"}},
	}
	if err := resp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Location: /home\r\n") {
		t.Fatalf("extra header missing: %q", buf.String())
	}
}

func TestResponseParsesBack(t *testing.T) {
	// A response we write must be readable by a minimal client: status
	// line, then headers, then exactly Content-Length bytes.
	var buf bytes.Buffer
	body := []byte(strings.Repeat("x", 1000))
	resp := Response{Status: StatusOK, Body: body}
	if err := resp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	i := strings.Index(out, "\r\n\r\n")
	if i < 0 {
		t.Fatal("no header terminator")
	}
	if got := out[i+4:]; got != string(body) {
		t.Fatalf("body mismatch: %d bytes vs %d", len(got), len(body))
	}
}

func TestStatusText(t *testing.T) {
	if got := StatusText(StatusOK); got != "OK" {
		t.Fatalf("StatusText(200) = %q", got)
	}
	if got := StatusText(999); got != "Unknown" {
		t.Fatalf("StatusText(999) = %q", got)
	}
}

func TestWriteError(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteError(&buf, StatusBadRequest, "bad header"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "400 Bad Request") || !strings.Contains(out, "bad header") {
		t.Fatalf("WriteError output: %q", out)
	}
	if !strings.Contains(out, "text/plain") {
		t.Fatalf("error responses should be text/plain: %q", out)
	}
}

// Package server defines the web-application contract shared by both
// server variants and implements the baseline thread-per-request server
// the paper compares against.
//
// The application model mirrors CherryPy+Django as the paper describes
// it: a URL maps to a handler function; the handler performs database
// queries using the connection owned by its worker thread and returns
// either
//
//   - a pre-rendered page (the conventional style,
//     get_template(name).render(data) — Figure 2 of the paper), or
//   - an unrendered template name plus the data to render it with (the
//     paper's one-line modification, "return (tmpl.html, data)").
//
// The baseline server renders templates on the same worker either way;
// the staged server (package core) ships deferred results to a dedicated
// rendering pool and, per Section 3.2, still handles pre-rendered strings
// for backward compatibility.
//
// Transport is the connection layer the baseline, the staged server and
// the cluster balancer share, and their one serving lifecycle: Serve
// runs the accept loop on a listener and hands each connection to the
// server's sink; Stop closes that listener, aborts every open
// connection and waits until all are closed, and a connection accepted
// once Stop has begun is closed rather than handed on.
package server

import (
	"fmt"
	"time"

	"stagedweb/internal/httpwire"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/template"
)

// DBConn is the connection-shaped database surface handlers program
// against: exactly the Query/Exec methods of a *sqldb.Conn. A direct
// connection satisfies it, and so does a dbtier connection that routes
// reads across replicas — handlers cannot tell the difference.
type DBConn interface {
	// Query executes a SELECT and returns the materialized result.
	Query(sql string, args ...any) (*sqldb.ResultSet, error)
	// Exec executes an INSERT, UPDATE, or DELETE.
	Exec(sql string, args ...any) (sqldb.ExecResult, error)
}

// Request is the application-visible request.
type Request struct {
	// Path is the request path, e.g. "/best_sellers".
	Path string
	// Query holds the parsed query string and form fields.
	Query map[string]string
	// Header holds the parsed request headers.
	Header httpwire.Header
	// DB is the database connection owned by the worker executing the
	// handler. Handlers must not retain it past their return.
	DB DBConn
}

// Result is what a handler returns.
type Result struct {
	// Status defaults to 200.
	Status int
	// ContentType defaults to text/html.
	ContentType string

	// Body, when non-empty, is a pre-rendered response (conventional
	// style). Template/Data are ignored.
	Body string

	// Template names an unrendered template; Data is its context (the
	// paper's deferred style).
	Template string
	Data     map[string]any
}

// Deferred reports whether the result requires template rendering.
func (r *Result) Deferred() bool { return r.Body == "" && r.Template != "" }

// HandlerFunc computes a dynamic page.
type HandlerFunc func(*Request) (*Result, error)

// App is a template-based web application servable by either variant.
type App interface {
	// Handler resolves a dynamic path. ok is false for unknown pages.
	Handler(path string) (h HandlerFunc, ok bool)
	// Static resolves a static asset.
	Static(path string) (body []byte, contentType string, ok bool)
	// Templates is the application's template set.
	Templates() *template.Set
}

// Class labels a completed request for the per-class throughput figures.
type Class int

const (
	// ClassStatic is a static-file request.
	ClassStatic Class = iota + 1
	// ClassQuick is a dynamic request on a quick page.
	ClassQuick
	// ClassLengthy is a dynamic request on a lengthy page.
	ClassLengthy
)

func (c Class) String() string {
	switch c {
	case ClassStatic:
		return "static"
	case ClassQuick:
		return "quick"
	case ClassLengthy:
		return "lengthy"
	default:
		return "unknown"
	}
}

// CompletionEvent reports one finished request, fired after the response
// bytes are written. The harness aggregates these into Figures 9 and 10
// and Table 4.
type CompletionEvent struct {
	// Page is the page key (request path) or the asset path for statics.
	Page string
	// Class is the request's class at completion time.
	Class Class
	// Status is the HTTP status sent.
	Status int
	// Done is the completion time as read from the transport's injected
	// clock (wall time under clock.Real, manual time under clock.Manual).
	Done time.Time
	// ServerTime is the clock duration from request acquisition to
	// response written (server-side view; the client measures WIRT).
	ServerTime time.Duration
}

// RenderResult materializes a Result into a wire response body, rendering
// the template if the result is deferred. The body is appended to buf,
// which the caller owns before and after; the page is rendered straight
// into it, with no string in between. Both servers share RenderResult;
// they differ only in *which worker* calls it.
func RenderResult(app App, res *Result, buf []byte) (body []byte, contentType string, status int, err error) {
	status = res.Status
	if status == 0 {
		status = httpwire.StatusOK
	}
	contentType = res.ContentType
	if contentType == "" {
		contentType = "text/html; charset=utf-8"
	}
	switch {
	case res.Body != "":
		return append(buf, res.Body...), contentType, status, nil
	case res.Template != "":
		body, err = app.Templates().RenderAppend(buf, res.Template, res.Data)
		if err != nil {
			return buf, "", 0, fmt.Errorf("render %q: %w", res.Template, err)
		}
		return body, contentType, status, nil
	default:
		return buf, contentType, status, nil
	}
}

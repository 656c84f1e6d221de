package variant

import (
	"strings"
	"testing"
	"time"
)

func TestSettingsCloneMerge(t *testing.T) {
	var nilSet Settings
	if nilSet.Clone() != nil {
		t.Fatal("nil clone not nil")
	}
	base := Settings{"a": "1", "b": "2"}
	c := base.Clone()
	c["a"] = "9"
	if base["a"] != "1" {
		t.Fatal("clone aliases base")
	}
	m := base.Merge(Settings{"b": "3", "c": "4"})
	if m["a"] != "1" || m["b"] != "3" || m["c"] != "4" {
		t.Fatalf("merge wrong: %v", m)
	}
	if base["b"] != "2" {
		t.Fatal("merge mutated receiver")
	}
}

func TestParseKV(t *testing.T) {
	k, v, err := ParseKV("cutoff=2s")
	if err != nil || k != "cutoff" || v != "2s" {
		t.Fatalf("ParseKV: %q %q %v", k, v, err)
	}
	k, v, err = ParseKV(" general = 32 ")
	if err != nil || k != "general" || v != "32" {
		t.Fatalf("ParseKV trims: %q %q %v", k, v, err)
	}
	for _, bad := range []string{"", "=5", "noequals"} {
		if _, _, err := ParseKV(bad); err == nil {
			t.Errorf("ParseKV(%q) accepted", bad)
		}
	}
}

func TestSettingsFlag(t *testing.T) {
	var f SettingsFlag
	if f.String() != "" {
		t.Errorf("empty String() = %q", f.String())
	}
	for _, kv := range []string{"general=32", "cutoff=3s", "general=8"} {
		if err := f.Set(kv); err != nil {
			t.Fatal(err)
		}
	}
	if f.Settings["general"] != "8" || f.Settings["cutoff"] != "3s" {
		t.Fatalf("collected = %v", f.Settings)
	}
	if got := f.String(); got != "cutoff=3s,general=8" {
		t.Errorf("String() = %q", got)
	}
	if err := f.Set("nonsense"); err == nil {
		t.Error("malformed pair accepted")
	}
}

func TestDecoderTypesAndLayering(t *testing.T) {
	env := Env{
		Set:      Settings{"general": "32", "indexes": "", "cutoff": "3s"},
		Defaults: Settings{"general": "64", "lengthy": "16", "ignored-elsewhere": "x"},
	}
	d := NewDecoder(env)
	if got := d.Int("general", 1); got != 32 {
		t.Errorf("explicit beats default: got %d", got)
	}
	if got := d.Int("lengthy", 1); got != 16 {
		t.Errorf("default read: got %d", got)
	}
	if got := d.Int("render", 7); got != 7 {
		t.Errorf("unset default: got %d", got)
	}
	if !d.Bool("indexes", false) {
		t.Error("bare key not true")
	}
	if got := d.Duration("cutoff", time.Second); got != 3*time.Second {
		t.Errorf("duration: got %v", got)
	}
	// Unconsumed Defaults keys are fine; all Set keys were consumed.
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDecoderBoolOnOff(t *testing.T) {
	d := NewDecoder(Env{Set: Settings{"mvcc": "on", "trace": "off"}})
	if !d.Bool("mvcc", false) {
		t.Error(`"on" not true`)
	}
	if d.Bool("trace", true) {
		t.Error(`"off" not false`)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDecoderEnum(t *testing.T) {
	d := NewDecoder(Env{
		Set:      Settings{"repl": "async"},
		Defaults: Settings{"mode": "tpr"},
	})
	if got := d.Enum("repl", "sync", "sync", "async"); got != "async" {
		t.Errorf("explicit enum: got %q", got)
	}
	if got := d.Enum("mode", "staged", "staged", "tpr"); got != "tpr" {
		t.Errorf("default-layer enum: got %q", got)
	}
	if got := d.Enum("other", "staged", "staged", "tpr"); got != "staged" {
		t.Errorf("unset enum: got %q", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	bad := NewDecoder(Env{Set: Settings{"repl": "asynch"}})
	if got := bad.Enum("repl", "sync", "sync", "async"); got != "sync" {
		t.Errorf("bad enum did not return default: %q", got)
	}
	err := bad.Finish()
	if err == nil || !strings.Contains(err.Error(), "sync|async") {
		t.Fatalf("Finish error %v does not name allowed values", err)
	}
}

func TestDecoderErrors(t *testing.T) {
	d := NewDecoder(Env{Set: Settings{"workers": "many", "bogus": "1"}})
	if got := d.Int("workers", 5); got != 5 {
		t.Errorf("bad int did not return default: %d", got)
	}
	err := d.Finish()
	if err == nil {
		t.Fatal("Finish accepted bad settings")
	}
	for _, want := range []string{"workers", "bogus"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q misses %q", err, want)
		}
	}
}

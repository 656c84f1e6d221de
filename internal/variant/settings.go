package variant

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Settings is the generic key=value configuration surface of a variant:
// what `-set key=value` sets on the command line, what scenario
// mutations override in a sweep, and what the harness's Config.Defaults
// holds. Values are strings; builders decode them through a
// Decoder, which makes unknown explicit keys build errors.
type Settings map[string]string

// Clone returns an independent copy (nil stays nil).
func (s Settings) Clone() Settings {
	if s == nil {
		return nil
	}
	out := make(Settings, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Merge returns a new Settings with over's entries layered on top of s.
func (s Settings) Merge(over Settings) Settings {
	out := make(Settings, len(s)+len(over))
	for k, v := range s {
		out[k] = v
	}
	for k, v := range over {
		out[k] = v
	}
	return out
}

// ParseKV splits a "key=value" pair, as accepted by -set flags.
func ParseKV(kv string) (key, value string, err error) {
	k, v, ok := strings.Cut(kv, "=")
	k = strings.TrimSpace(k)
	if !ok || k == "" {
		return "", "", fmt.Errorf("variant: malformed setting %q (want key=value)", kv)
	}
	return k, strings.TrimSpace(v), nil
}

// SettingsFlag is a flag.Value collecting repeated "-set key=value"
// arguments into Settings, shared by cmd/experiments and cmd/poolserv:
//
//	var sets variant.SettingsFlag
//	fs.Var(&sets, "set", "variant setting `key=value` (repeatable)")
type SettingsFlag struct {
	Settings Settings
}

// String renders the collected settings (sorted, for -help and tests).
func (f *SettingsFlag) String() string {
	keys := make([]string, 0, len(f.Settings))
	for k := range f.Settings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pairs := make([]string, len(keys))
	for i, k := range keys {
		pairs[i] = k + "=" + f.Settings[k]
	}
	return strings.Join(pairs, ",")
}

// Set parses one key=value pair; a repeated key keeps the last value.
func (f *SettingsFlag) Set(kv string) error {
	k, v, err := ParseKV(kv)
	if err != nil {
		return err
	}
	if f.Settings == nil {
		f.Settings = Settings{}
	}
	f.Settings[k] = v
	return nil
}

// Decoder reads typed values out of an Env's settings, explicit
// overrides first, then harness-provided defaults. It accumulates
// errors so builders can decode every key and report problems once:
//
//	d := variant.NewDecoder(env)
//	workers := d.Int("workers", 80)
//	if err := d.Finish(); err != nil { return nil, err }
//
// Finish also rejects explicit keys no accessor consumed, so a typo in
// -set key=value fails the build instead of being silently ignored.
// Unconsumed Defaults keys are fine — they belong to other variants.
type Decoder struct {
	explicit Settings
	defaults Settings
	used     map[string]bool
	errs     []string
}

// NewDecoder returns a Decoder over env.Set and env.Defaults.
func NewDecoder(env Env) *Decoder {
	return NewSettingsDecoder(env.Set, env.Defaults)
}

// NewSettingsDecoder returns a Decoder over explicit overrides and
// advisory defaults directly — for the load profiles and fault plans,
// which reuse the settings surface without a variant Env.
func NewSettingsDecoder(explicit, defaults Settings) *Decoder {
	return &Decoder{explicit: explicit, defaults: defaults, used: map[string]bool{}}
}

func (d *Decoder) lookup(key string) (string, bool) {
	d.used[key] = true
	if v, ok := d.explicit[key]; ok {
		return v, true
	}
	v, ok := d.defaults[key]
	return v, ok
}

func (d *Decoder) fail(key, val, want string) {
	d.errs = append(d.errs, fmt.Sprintf("setting %s=%q: want %s", key, val, want))
}

// Int reads an integer setting, returning def when unset.
func (d *Decoder) Int(key string, def int) int {
	v, ok := d.lookup(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		d.fail(key, v, "an integer")
		return def
	}
	return n
}

// Float reads a floating-point setting, returning def when unset.
func (d *Decoder) Float(key string, def float64) float64 {
	v, ok := d.lookup(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		d.fail(key, v, "a number")
		return def
	}
	return f
}

// Bool reads a boolean setting ("true"/"false"/"1"/"0"/"on"/"off"); a
// key set to the empty string reads as true, so "-set indexes="
// works.
func (d *Decoder) Bool(key string, def bool) bool {
	v, ok := d.lookup(key)
	if !ok {
		return def
	}
	switch v {
	case "":
		return true
	case "on":
		return true
	case "off":
		return false
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		d.fail(key, v, "a boolean")
		return def
	}
	return b
}

// String reads a free-form string setting, returning def when unset.
// Prefer Enum when the value set is closed; String is for open-ended
// values like a fault-plan name validated against the plan table.
func (d *Decoder) String(key, def string) string {
	v, ok := d.lookup(key)
	if !ok {
		return def
	}
	return v
}

// Enum reads a setting constrained to a closed set of values, returning
// def when unset. Any value outside allowed is a build error, so a typo
// in "-set repl=asynch" fails loudly instead of silently picking the
// default.
func (d *Decoder) Enum(key, def string, allowed ...string) string {
	v, ok := d.lookup(key)
	if !ok {
		return def
	}
	for _, a := range allowed {
		if v == a {
			return v
		}
	}
	d.fail(key, v, "one of "+strings.Join(allowed, "|"))
	return def
}

// Duration reads a Go-syntax duration setting ("2s", "500ms").
func (d *Decoder) Duration(key string, def time.Duration) time.Duration {
	v, ok := d.lookup(key)
	if !ok {
		return def
	}
	dur, err := time.ParseDuration(v)
	if err != nil {
		d.fail(key, v, "a duration like 2s")
		return def
	}
	return dur
}

// Finish reports accumulated decode errors plus any explicit keys never
// consumed by an accessor.
func (d *Decoder) Finish() error {
	var unknown []string
	for k := range d.explicit {
		if !d.used[k] {
			unknown = append(unknown, k)
		}
	}
	sort.Strings(unknown)
	errs := d.errs
	for _, k := range unknown {
		errs = append(errs, fmt.Sprintf("unknown setting %q", k))
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("variant: %s", strings.Join(errs, "; "))
}

package plainjson

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

// scalarCases are single JSON values, each either in the plain form for
// the kind it is read as or outside it.
var scalarCases = []string{
	`0`, `-0`, `1`, `-1`, `42`, `1.5`, `-0.25`, `1e3`, `1E+3`, `2.5e-3`, `9007199254740993`,
	`9223372036854775807`, `-9223372036854775808`, `9223372036854775808`, `1e400`, `-1e400`, `4.9e-324`, `1e-400`,
	`01`, `-`, `+1`, `.5`, `1.`, `1e`, `1e+`, `0x10`, `Infinity`, `NaN`, `1_000`,
	`"x"`, `""`, `"héllo ✓"`, `"a\"b"`, `"a\u0062"`, "\"a\x01\"", "\"\xff\"", "\"\xed\xa0\x80\"", `"unterminated`,
	`true`, `false`, `null`, `tru`, `True`, `[]`, `{}`,
	` 7`, "\t\r\n7", " 7",
}

// TestScalarsMatchEncodingJSON reads every case as each scalar kind: the
// Reader must either refuse it with ErrUnsupported or read a prefix that
// encoding/json decodes to the same value.
func TestScalarsMatchEncodingJSON(t *testing.T) {
	for _, in := range scalarCases {
		checkScalar(t, []byte(in), (*Reader).Float)
		checkScalar(t, []byte(in), (*Reader).Int)
		checkScalar(t, []byte(in), (*Reader).String)
		checkScalar(t, []byte(in), (*Reader).Bool)
	}
}

// checkScalar reports whether read accepted in, failing t unless it
// refused with ErrUnsupported or read a prefix encoding/json decodes to the
// same value.
func checkScalar[T comparable](t *testing.T, in []byte, read func(*Reader) (T, error)) bool {
	t.Helper()
	r := NewReader(in)
	got, err := read(r)
	if err != nil {
		if !errors.Is(err, ErrUnsupported) {
			t.Fatalf("%T read of %q: error %v is not ErrUnsupported", got, in, err)
		}
		return false
	}
	var want T
	if jerr := json.Unmarshal(in[:r.pos], &want); jerr != nil || !same(got, want) {
		t.Fatalf("%T read %q as %v; encoding/json decodes %v (%v)", got, in[:r.pos], got, want, jerr)
	}
	return true
}

// same is ==, except that it tells -0 from 0.
func same[T comparable](a, b T) bool {
	if f, ok := any(a).(float64); ok {
		return math.Float64bits(f) == math.Float64bits(any(b).(float64))
	}
	return a == b
}

// TestPlainFormBoundaries pins which inputs are outside the plain form even
// though encoding/json accepts them.
func TestPlainFormBoundaries(t *testing.T) {
	for in, plain := range map[string]bool{
		`"a\"b"`:      false, // any escape
		`"a\u0062"`:   false,
		"\"\xff\"":    false, // invalid UTF-8 (encoding/json substitutes U+FFFD)
		`null`:        false,
		`1e400`:       false, // out of float64 range
		`"héllo ✓"`:   true,
		"\t\r\n\"x\"": true,
	} {
		_, err := NewReader([]byte(in)).String()
		if _, ferr := NewReader([]byte(in)).Float(); ferr == nil {
			err = nil
		}
		if got := err == nil; got != plain {
			t.Errorf("%q: plain = %v, want %v", in, got, plain)
		}
	}
	if _, err := NewReader([]byte(`1.0`)).Int(); err == nil {
		t.Error("Int accepted a fraction")
	}
	if _, err := NewReader([]byte(`1e2`)).Int(); err == nil {
		t.Error("Int accepted an exponent")
	}
}

type point struct {
	X    float64 `json:"x"`
	Tags []string
}

var pointKeys = []string{"x", "Tags"}

func readPoint(r *Reader, p *point) error {
	return r.Object(pointKeys, func(i int) (err error) {
		if i == 0 {
			p.X, err = r.Float()
			return err
		}
		p.Tags = []string{}
		return r.Array(func() error {
			s, err := r.String()
			p.Tags = append(p.Tags, s)
			return err
		})
	})
}

// TestObjectsAndArrays checks structure handling against encoding/json:
// exact, unique keys and well-formed nesting are read; everything else is
// ErrUnsupported.
func TestObjectsAndArrays(t *testing.T) {
	for in, plain := range map[string]bool{
		`{}`:                           true,
		` { "x" : 1 , "Tags" : [ ] } `: true,
		`{"Tags":["a","b"],"x":-2.5}`:  true,
		`{"x":1,"x":2}`:                false, // duplicate key
		`{"X":1}`:                      false, // matches only case-insensitively
		`{"y":1}`:                      false, // unknown key
		`{"x":1,}`:                     false,
		`{"Tags":["a",]}`:              false,
		`{"Tags":null}`:                false,
		`{"x":1`:                       false,
		`{"x" 1}`:                      false,
		`{"x":1 "Tags":[]}`:            false,
		`[]`:                           false,
		``:                             false,
	} {
		var got point
		err := readPoint(NewReader([]byte(in)), &got)
		if err != nil {
			if !errors.Is(err, ErrUnsupported) {
				t.Errorf("%q: error %v is not ErrUnsupported", in, err)
			}
			if plain {
				t.Errorf("%q: not read: %v", in, err)
			}
			continue
		}
		if !plain {
			t.Errorf("%q: read as %+v, want ErrUnsupported", in, got)
			continue
		}
		var want point
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Fatal(err)
		}
		if got.X != want.X || strings.Join(got.Tags, ",") != strings.Join(want.Tags, ",") || (got.Tags == nil) != (want.Tags == nil) {
			t.Errorf("%q: read %+v, encoding/json decodes %+v", in, got, want)
		}
	}
}

// FuzzNumber holds Float and Int to encoding/json on arbitrary bytes: what
// they read, encoding/json decodes to the same value, and every number
// encoding/json decodes, they read.
func FuzzNumber(f *testing.F) {
	for _, in := range scalarCases {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var fl float64
		if !checkScalar(t, in, (*Reader).Float) && json.Unmarshal(in, &fl) == nil && !isNull(in) {
			t.Fatalf("Float refused %q, which encoding/json decodes as %v", in, fl)
		}
		var n int
		if !checkScalar(t, in, (*Reader).Int) && json.Unmarshal(in, &n) == nil && !isNull(in) {
			t.Fatalf("Int refused %q, which encoding/json decodes as %v", in, n)
		}
	})
}

// isNull reports whether in is the JSON null, which encoding/json accepts
// for any type by leaving the value alone.
func isNull(in []byte) bool { return strings.Trim(string(in), " \t\r\n") == "null" }

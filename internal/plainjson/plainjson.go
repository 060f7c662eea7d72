// Package plainjson reads the plain form of JSON in one pass over a byte
// slice, for the request bodies elpcd decodes on every planning call.
//
// The plain form is what json.Marshal writes for the service's wire types:
// objects whose keys match the expected names exactly and appear at most
// once, strings without escapes in valid UTF-8, numbers in the JSON grammar,
// true and false, and JSON whitespace between tokens. On that form a Reader
// yields exactly the values encoding/json would decode: numbers go through
// the same strconv.ParseInt and strconv.ParseFloat calls, and strings are
// the bytes between the quotes.
//
// Everything else — escapes, keys that differ in case, unknown or repeated
// keys, null, out-of-range numbers, a value of the wrong type, malformed
// JSON, truncated input — is ErrUnsupported. A Reader never reports what is
// wrong with such input: the caller decodes it again with encoding/json,
// which owns every error message.
package plainjson

import (
	"errors"
	"strconv"
	"unicode/utf8"
)

// ErrUnsupported reports input outside the plain form. The caller decodes
// the same input with encoding/json instead.
var ErrUnsupported = errors.New("plainjson: input outside the plain form")

// Reader is a cursor over one JSON document held in memory. Each method
// reads one value at the cursor, after any whitespace, and leaves the
// cursor just past it. After an error the cursor position is unspecified.
type Reader struct {
	data []byte
	pos  int
}

// NewReader returns a Reader positioned at the start of data. Values the
// Reader returns never alias data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// skipSpace advances past JSON whitespace.
func (r *Reader) skipSpace() {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and then advances past c if it is next.
func (r *Reader) consume(c byte) bool {
	r.skipSpace()
	if r.pos < len(r.data) && r.data[r.pos] == c {
		r.pos++
		return true
	}
	return false
}

// Object reads an object whose keys are drawn from keys (at most 64). For
// each member it calls member with the index of the member's key in keys;
// member must read the value, and an error it returns ends the read. A key
// outside keys, or one seen twice, is ErrUnsupported.
func (r *Reader) Object(keys []string, member func(i int) error) error {
	if !r.consume('{') {
		return ErrUnsupported
	}
	if r.consume('}') {
		return nil
	}
	var seen uint64
	for {
		r.skipSpace()
		key, err := r.str()
		if err != nil {
			return err
		}
		i := index(keys, key)
		if i < 0 || seen&(1<<i) != 0 {
			return ErrUnsupported
		}
		seen |= 1 << i
		if !r.consume(':') {
			return ErrUnsupported
		}
		if err := member(i); err != nil {
			return err
		}
		if r.consume(',') {
			continue
		}
		if r.consume('}') {
			return nil
		}
		return ErrUnsupported
	}
}

// index returns the position of key in keys, or -1.
func index(keys []string, key []byte) int {
	for i, k := range keys {
		if string(key) == k {
			return i
		}
	}
	return -1
}

// Array reads an array, calling elem once per element; elem must read the
// element.
func (r *Reader) Array(elem func() error) error {
	if !r.consume('[') {
		return ErrUnsupported
	}
	if r.consume(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if r.consume(',') {
			continue
		}
		if r.consume(']') {
			return nil
		}
		return ErrUnsupported
	}
}

// String reads a string without escapes, in valid UTF-8.
func (r *Reader) String() (string, error) {
	r.skipSpace()
	s, err := r.str()
	if err != nil {
		return "", err
	}
	return string(s), nil
}

// str returns the bytes of the string at the cursor, without the quotes.
// It refuses escapes, control characters (which JSON forbids unescaped) and
// invalid UTF-8 (which encoding/json would replace with U+FFFD).
func (r *Reader) str() ([]byte, error) {
	d := r.data
	if r.pos >= len(d) || d[r.pos] != '"' {
		return nil, ErrUnsupported
	}
	start := r.pos + 1
	ascii := true
	for i := start; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			s := d[start:i]
			if !ascii && !utf8.Valid(s) {
				return nil, ErrUnsupported
			}
			r.pos = i + 1
			return s, nil
		case c == '\\' || c < ' ':
			return nil, ErrUnsupported
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, ErrUnsupported
}

// Float reads a number into a float64 as encoding/json does. A number
// strconv.ParseFloat cannot represent (such as 1e400) is ErrUnsupported.
func (r *Reader) Float() (float64, error) {
	num, err := r.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return 0, ErrUnsupported
	}
	return f, nil
}

// Int reads a number into an int as encoding/json does. A fraction, an
// exponent, or a value outside int's range is ErrUnsupported.
func (r *Reader) Int() (int, error) {
	num, err := r.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil || int64(int(n)) != n {
		return 0, ErrUnsupported
	}
	return int(n), nil
}

// number returns the bytes of the number at the cursor, checked against the
// JSON grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (r *Reader) number() ([]byte, error) {
	r.skipSpace()
	d, start := r.data, r.pos
	i := start
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i+1)
	default:
		return nil, ErrUnsupported
	}
	if i < len(d) && d[i] == '.' {
		if i+1 >= len(d) || !isDigit(d[i+1]) {
			return nil, ErrUnsupported
		}
		i = digits(d, i+1)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			return nil, ErrUnsupported
		}
		i = digits(d, i)
	}
	r.pos = i
	return d[start:i], nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits returns the index of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && isDigit(d[i]) {
		i++
	}
	return i
}

// Bool reads true or false.
func (r *Reader) Bool() (bool, error) {
	r.skipSpace()
	rest := r.data[r.pos:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		r.pos += 4
		return true, nil
	case len(rest) >= 5 && string(rest[:5]) == "false":
		r.pos += 5
		return false, nil
	}
	return false, ErrUnsupported
}

package ingress

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The /submit body and reply are fixed-shape JSON — a request of
// {"model","batch","session"?,"deadline_ms"?} and a reply of
// {"model","batch","latency_ms","instance"?,"error"?} — and the hot path
// encodes and decodes them with hand-rolled append-style code instead of
// encoding/json: reflection-based Marshal/Unmarshal costs dozens of
// allocations per call, which alone would blow the front door's
// per-submit allocation budget. The tests declare the two shapes as
// structs and hold this codec to encoding/json's handling of them.

// submitFields is the decoded form of a /submit body. The byte slices
// alias the request body buffer (or, when a string needed unescaping,
// an in-place rewrite of it) — valid until the buffer is reused.
type submitFields struct {
	model      []byte
	session    []byte
	batch      int64
	deadlineMS int64
}

var (
	errJSONSyntax = errors.New("invalid JSON body")
	errJSONShape  = errors.New("body must be a JSON object")
)

// parseSubmitBody decodes a /submit body from p without allocating.
// Unknown fields are skipped (matching encoding/json), strings with
// escapes are unescaped in place (p is the request's scratch buffer),
// and numbers must be integers — the wire shape has no float fields.
func parseSubmitBody(p []byte, f *submitFields) error {
	*f = submitFields{}
	i := skipWS(p, 0)
	if i >= len(p) || p[i] != '{' {
		return errJSONShape
	}
	i = skipWS(p, i+1)
	if i < len(p) && p[i] == '}' {
		return endOfBody(p, i+1)
	}
	for done := false; !done; {
		key, vi, err := scanKey(p, i)
		if err != nil {
			return err
		}
		if i = vi; i < len(p) && p[i] == 'n' {
			key = nil // null leaves a known field as it is: skip it like any other
		}
		switch string(key) {
		case "model":
			f.model, i, err = scanString(p, i)
		case "session":
			f.session, i, err = scanString(p, i)
		case "batch":
			f.batch, i, err = scanInt(p, i)
		case "deadline_ms":
			f.deadlineMS, i, err = scanInt(p, i)
		default:
			i, err = skipValue(p, i, 0)
		}
		if err != nil {
			return err
		}
		if i, done, err = scanSep(p, i, '}'); err != nil {
			return err
		}
	}
	return endOfBody(p, i)
}

// scanKey scans an object member's `"key" :` and returns the key and the
// index of the member's value.
func scanKey(p []byte, i int) ([]byte, int, error) {
	key, i, err := scanString(p, i)
	if err != nil {
		return nil, i, err
	}
	if i = skipWS(p, i); i >= len(p) || p[i] != ':' {
		return nil, i, errJSONSyntax
	}
	return key, skipWS(p, i+1), nil
}

// scanSep steps over what follows a member or element: a comma (more
// follow; next is where) or the closing bracket clos (done).
func scanSep(p []byte, i int, clos byte) (next int, done bool, err error) {
	switch i = skipWS(p, i); {
	case i < len(p) && p[i] == clos:
		return i + 1, true, nil
	case i < len(p) && p[i] == ',':
		return skipWS(p, i+1), false, nil
	}
	return i, false, errJSONSyntax
}

// endOfBody refuses anything but whitespace after the closing brace.
func endOfBody(p []byte, i int) error {
	if skipWS(p, i) != len(p) {
		return errJSONSyntax
	}
	return nil
}

func skipWS(p []byte, i int) int {
	for i < len(p) {
		switch p[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// scanString decodes the JSON string starting at p[i] (which must be
// '"'), returning the contents and the index past the closing quote.
// Escape-free strings alias p directly; strings with escapes are
// rewritten in place (the unescaped form is never longer than the
// escaped one).
func scanString(p []byte, i int) ([]byte, int, error) {
	if i >= len(p) || p[i] != '"' {
		return nil, i, errJSONSyntax
	}
	i++
	start := i
	for i < len(p) {
		switch p[i] {
		case '"':
			return p[start:i], i + 1, nil
		case '\\':
			return unescapeString(p, start, i)
		default:
			if p[i] < 0x20 {
				return nil, i, errJSONSyntax
			}
			i++
		}
	}
	return nil, i, errJSONSyntax
}

// unescapeString finishes scanning a string that contains escapes,
// rewriting the decoded bytes over p[start:]. w≤i always holds, so the
// write never overruns the read cursor.
func unescapeString(p []byte, start, i int) ([]byte, int, error) {
	w := i
	for i < len(p) {
		c := p[i]
		switch {
		case c == '"':
			return p[start:w], i + 1, nil
		case c == '\\':
			i++
			if i >= len(p) {
				return nil, i, errJSONSyntax
			}
			switch p[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				p[w] = unescaped[p[i]]
				w, i = w+1, i+1
			case 'u':
				if i+4 >= len(p) {
					return nil, i, errJSONSyntax
				}
				r, ok := hex4(p[i+1 : i+5])
				if !ok {
					return nil, i, errJSONSyntax
				}
				i += 5
				if utf16.IsSurrogate(r) { // a pair decodes together; alone it is U+FFFD
					r2, ok := rune(0), false
					if i+5 < len(p) && p[i] == '\\' && p[i+1] == 'u' {
						r2, ok = hex4(p[i+2 : i+6])
					}
					if r = utf16.DecodeRune(r, r2); ok && r != utf8.RuneError {
						i += 6
					}
				}
				w += utf8.EncodeRune(p[w:w+utf8.UTFMax], r)
			default:
				return nil, i, errJSONSyntax
			}
		case c < 0x20:
			return nil, i, errJSONSyntax
		default:
			p[w] = c
			w, i = w+1, i+1
		}
	}
	return nil, i, errJSONSyntax
}

// unescaped maps a single-character escape to the byte it stands for.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 decodes the four hex digits of a \u escape.
func hex4(p []byte) (rune, bool) {
	v, err := strconv.ParseUint(string(p), 16, 16)
	return rune(v), err == nil
}

// scanInt parses a JSON integer. Floats and exponents are rejected — the
// submit shape has none, and encoding/json would reject them for the int
// fields too.
func scanInt(p []byte, i int) (int64, int, error) {
	end, integer, err := scanNumber(p, i)
	if err != nil {
		return 0, end, err
	}
	if !integer {
		return 0, end, errors.New("integer field has a fractional value")
	}
	v, err := strconv.ParseInt(string(p[i:end]), 10, 64)
	if err != nil {
		return 0, end, errJSONSyntax
	}
	return v, end, nil
}

// scanNumber steps over one number of exactly the RFC 8259 grammar —
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? — and reports whether it
// was written as an integer.
func scanNumber(p []byte, i int) (end int, integer bool, err error) {
	if i < len(p) && p[i] == '-' {
		i++
	}
	if i < len(p) && p[i] == '0' {
		i++
	} else if end = skipDigits(p, i); end == i {
		return i, false, errJSONSyntax
	} else {
		i = end
	}
	integer = true
	if i < len(p) && p[i] == '.' {
		integer = false
		if end = skipDigits(p, i+1); end == i+1 {
			return i, false, errJSONSyntax
		}
		i = end
	}
	if i < len(p) && (p[i] == 'e' || p[i] == 'E') {
		integer = false
		i++
		if i < len(p) && (p[i] == '+' || p[i] == '-') {
			i++
		}
		if end = skipDigits(p, i); end == i {
			return i, false, errJSONSyntax
		}
		i = end
	}
	return i, integer, nil
}

func skipDigits(p []byte, i int) int {
	for i < len(p) && p[i] >= '0' && p[i] <= '9' {
		i++
	}
	return i
}

// skipValue steps over one JSON value of any shape (the unknown-field
// path). depth guards runaway nesting.
func skipValue(p []byte, i, depth int) (int, error) {
	if depth > 32 {
		return i, errJSONSyntax
	}
	if i >= len(p) {
		return i, errJSONSyntax
	}
	switch p[i] {
	case '"':
		_, ni, err := scanString(p, i)
		return ni, err
	case '{', '[':
		object, clos := p[i] == '{', p[i]+2 // in ASCII both closers sit two past their opener
		i = skipWS(p, i+1)
		if i < len(p) && p[i] == clos {
			return i + 1, nil
		}
		for done := false; !done; {
			var err error
			if object {
				if _, i, err = scanKey(p, i); err != nil {
					return i, err
				}
			}
			if i, err = skipValue(p, i, depth+1); err != nil {
				return i, err
			}
			if i, done, err = scanSep(p, i, clos); err != nil {
				return i, err
			}
		}
		return i, nil
	case 't':
		return skipLit(p, i, "true")
	case 'f':
		return skipLit(p, i, "false")
	case 'n':
		return skipLit(p, i, "null")
	default:
		end, _, err := scanNumber(p, i)
		return end, err
	}
}

func skipLit(p []byte, i int, lit string) (int, error) {
	if len(p)-i < len(lit) || string(p[i:i+len(lit)]) != lit {
		return i, errJSONSyntax
	}
	return i + len(lit), nil
}

// appendSubmitReply appends the /submit reply's JSON encoding — the same
// bytes encoding/json produces for the submitReply struct (FuzzSubmitJSON
// holds it to that), built with zero allocations beyond dst's growth.
func appendSubmitReply(dst []byte, model []byte, batch int64, latencyMS float64, instance, errMsg string) []byte {
	dst = append(dst, `{"model":`...)
	dst = appendJSONString(dst, model)
	dst = append(dst, `,"batch":`...)
	dst = strconv.AppendInt(dst, batch, 10)
	dst = append(dst, `,"latency_ms":`...)
	dst = appendJSONFloat(dst, latencyMS)
	if instance != "" {
		dst = append(dst, `,"instance":`...)
		dst = appendJSONString(dst, instance)
	}
	if errMsg != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, errMsg)
	}
	return append(dst, '}')
}

// appendJSONFloat formats f as encoding/json does: ES6 number-to-string,
// i.e. plain decimals except for very small and very large magnitudes,
// whose exponent is written without a leading zero.
func appendJSONFloat(dst []byte, f float64) []byte {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1] // e-09 → e-9
			dst = dst[:n-1]
		}
		return dst
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string, escaping what
// encoding/json would: quotes, backslashes and controls; <, > and & for
// HTML safety (Marshal's default); U+2028/2029; and each byte that is not
// valid UTF-8 as U+FFFD, so echoing a client's garbage still yields JSON.
func appendJSONString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			dst = appendJSONByte(dst, c)
			i++
			continue
		}
		// Converting at most one rune's bytes keeps the string on the stack.
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			dst = append(dst, s[i:i+size]...)
		}
		i += size
	}
	return append(dst, '"')
}

func appendJSONByte(dst []byte, c byte) []byte {
	switch {
	case c == '"' || c == '\\':
		return append(dst, '\\', c)
	case c >= 0x20 && c != '<' && c != '>' && c != '&':
		return append(dst, c)
	}
	if k := strings.IndexByte("\b\f\n\r\t", c); k >= 0 {
		return append(dst, '\\', "bfnrt"[k])
	}
	return append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
}

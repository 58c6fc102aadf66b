package ingress

import (
	"errors"
	"strconv"
	"unicode/utf8"
)

// The /submit body and reply are fixed-shape JSON, and the hot path
// encodes and decodes them with hand-rolled append-style code instead of
// encoding/json: reflection-based Marshal/Unmarshal costs dozens of
// allocations per call, which alone would blow the front door's
// per-submit allocation budget. The reflective types are kept for the
// cold paths (/stats, the 405 reply) and as the documented wire shape the
// tests hold the hand-rolled codec to.

// submitRequest is the POST /submit body.
type submitRequest struct {
	Model string `json:"model"`
	Batch int    `json:"batch"`
	// Session is an optional session-affinity key: submissions sharing it
	// prefer the same serving instance.
	Session string `json:"session,omitempty"`
	// DeadlineMS bounds how long the query may wait for dispatch; 0 means
	// no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// submitReply is the POST /submit response body.
type submitReply struct {
	Model string `json:"model"`
	Batch int    `json:"batch"`
	// LatencyMS is the end-to-end serving latency in model milliseconds.
	LatencyMS float64 `json:"latency_ms"`
	// Instance is the serving instance type.
	Instance string `json:"instance,omitempty"`
	// Error carries a rejection or serving failure; empty on success.
	Error string `json:"error,omitempty"`
}

// submitFields is the decoded form of a submitRequest. The byte slices
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

// parseSubmitBody decodes a submitRequest from p without allocating.
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
		return nil
	}
	for {
		if i >= len(p) || p[i] != '"' {
			return errJSONSyntax
		}
		key, ni, err := scanString(p, i)
		if err != nil {
			return err
		}
		i = skipWS(p, ni)
		if i >= len(p) || p[i] != ':' {
			return errJSONSyntax
		}
		i = skipWS(p, i+1)
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
		i = skipWS(p, i)
		if i >= len(p) {
			return errJSONSyntax
		}
		if p[i] == '}' {
			return nil
		}
		if p[i] != ',' {
			return errJSONSyntax
		}
		i = skipWS(p, i+1)
	}
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
			case '"', '\\', '/':
				p[w] = p[i]
				w, i = w+1, i+1
			case 'b':
				p[w] = '\b'
				w, i = w+1, i+1
			case 'f':
				p[w] = '\f'
				w, i = w+1, i+1
			case 'n':
				p[w] = '\n'
				w, i = w+1, i+1
			case 'r':
				p[w] = '\r'
				w, i = w+1, i+1
			case 't':
				p[w] = '\t'
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
				if utf16IsHighSurrogate(r) && i+5 < len(p) && p[i] == '\\' && p[i+1] == 'u' {
					if r2, ok2 := hex4(p[i+2 : i+6]); ok2 && utf16IsLowSurrogate(r2) {
						r = 0x10000 + (r-0xD800)<<10 + (r2 - 0xDC00)
						i += 6
					}
				}
				if r >= 0xD800 && r < 0xE000 { // unpaired surrogate
					r = utf8.RuneError
				}
				w += utf8.EncodeRune(p[w:w+utf8.UTFMax], rune(r))
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

func hex4(p []byte) (uint32, bool) {
	var r uint32
	for _, c := range p {
		r <<= 4
		switch {
		case c >= '0' && c <= '9':
			r |= uint32(c - '0')
		case c >= 'a' && c <= 'f':
			r |= uint32(c-'a') + 10
		case c >= 'A' && c <= 'F':
			r |= uint32(c-'A') + 10
		default:
			return 0, false
		}
	}
	return r, true
}

func utf16IsHighSurrogate(r uint32) bool { return r >= 0xD800 && r < 0xDC00 }
func utf16IsLowSurrogate(r uint32) bool  { return r >= 0xDC00 && r < 0xE000 }

// scanInt parses a JSON integer. Floats and exponents are rejected — the
// submit shape has none, and encoding/json would reject them for the int
// fields too.
func scanInt(p []byte, i int) (int64, int, error) {
	start := i
	if i < len(p) && p[i] == '-' {
		i++
	}
	for i < len(p) && p[i] >= '0' && p[i] <= '9' {
		i++
	}
	if i == start || (p[start] == '-' && i == start+1) {
		return 0, i, errJSONSyntax
	}
	if i < len(p) && (p[i] == '.' || p[i] == 'e' || p[i] == 'E') {
		return 0, i, errors.New("integer field has a fractional value")
	}
	v, err := strconv.ParseInt(string(p[start:i]), 10, 64)
	if err != nil {
		return 0, i, errJSONSyntax
	}
	return v, i, nil
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
		open, clos := p[i], byte('}')
		if open == '[' {
			clos = ']'
		}
		i = skipWS(p, i+1)
		if i < len(p) && p[i] == clos {
			return i + 1, nil
		}
		for {
			var err error
			if open == '{' {
				if i >= len(p) || p[i] != '"' {
					return i, errJSONSyntax
				}
				if _, i, err = scanString(p, i); err != nil {
					return i, err
				}
				i = skipWS(p, i)
				if i >= len(p) || p[i] != ':' {
					return i, errJSONSyntax
				}
				i = skipWS(p, i+1)
			}
			if i, err = skipValue(p, i, depth+1); err != nil {
				return i, err
			}
			i = skipWS(p, i)
			if i >= len(p) {
				return i, errJSONSyntax
			}
			if p[i] == clos {
				return i + 1, nil
			}
			if p[i] != ',' {
				return i, errJSONSyntax
			}
			i = skipWS(p, i+1)
		}
	case 't':
		return skipLit(p, i, "true")
	case 'f':
		return skipLit(p, i, "false")
	case 'n':
		return skipLit(p, i, "null")
	default: // number
		start := i
		for i < len(p) {
			switch p[i] {
			case '-', '+', '.', 'e', 'E':
				i++
			default:
				if p[i] >= '0' && p[i] <= '9' {
					i++
					continue
				}
				if i == start {
					return i, errJSONSyntax
				}
				return i, nil
			}
		}
		return i, nil
	}
}

func skipLit(p []byte, i int, lit string) (int, error) {
	if len(p)-i < len(lit) || string(p[i:i+len(lit)]) != lit {
		return i, errJSONSyntax
	}
	return i + len(lit), nil
}

// appendSubmitReply appends the submitReply JSON encoding — the same
// bytes encoding/json produces for the struct, built with zero
// allocations beyond dst's growth.
func appendSubmitReply(dst []byte, model []byte, batch int64, latencyMS float64, instance, errMsg string) []byte {
	dst = append(dst, `{"model":`...)
	dst = appendJSONString(dst, model)
	dst = append(dst, `,"batch":`...)
	dst = strconv.AppendInt(dst, batch, 10)
	dst = append(dst, `,"latency_ms":`...)
	dst = strconv.AppendFloat(dst, latencyMS, 'g', -1, 64)
	if instance != "" {
		dst = append(dst, `,"instance":`...)
		dst = appendJSONStringS(dst, instance)
	}
	if errMsg != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONStringS(dst, errMsg)
	}
	return append(dst, '}')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string, escaping the
// characters encoding/json would (quotes, backslashes, controls; <, >,
// and & for HTML safety, matching Marshal's default).
func appendJSONString(dst, s []byte) []byte {
	dst = append(dst, '"')
	for _, c := range s {
		dst = appendJSONByte(dst, c)
	}
	return append(dst, '"')
}

func appendJSONStringS(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		dst = appendJSONByte(dst, s[i])
	}
	return append(dst, '"')
}

func appendJSONByte(dst []byte, c byte) []byte {
	switch {
	case c == '"' || c == '\\':
		return append(dst, '\\', c)
	case c == '\n':
		return append(dst, '\\', 'n')
	case c == '\r':
		return append(dst, '\\', 'r')
	case c == '\t':
		return append(dst, '\\', 't')
	case c < 0x20 || c == '<' || c == '>' || c == '&':
		return append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
	default:
		return append(dst, c)
	}
}

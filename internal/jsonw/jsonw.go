// Package jsonw appends JSON to byte slices without reflection, byte for
// byte as encoding/json's Encoder writes it with SetEscapeHTML(false).
// The simulator's event records are encoded through it
// (netsim.TraceEvent.AppendJSONFields, telemetry.Event.AppendJSON): a
// json.Encoder spends most of its time on reflection for records this
// small, and the live session stream encodes one per simulator event.
package jsonw

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// String appends s as a JSON string escaped exactly as encoding/json
// escapes it with HTML escaping off: '"', '\\' and the control
// characters are escaped (\b, \f, \n, \r and \t by name, the rest as
// \u00XX), each byte of invalid UTF-8 becomes \ufffd, and U+2028 and
// U+2029 are escaped as well.
func String(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Int appends key and v.  Key is the raw text before the value: the
// separating comma if any, the quoted name and the colon.
func Int(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// OmitInt is Int for an omitempty field: it appends nothing when v is 0.
func OmitInt(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return Int(dst, key, v)
}

// OmitString appends key and s as a JSON string unless s is empty.
func OmitString(dst []byte, key string, s string) []byte {
	if s == "" {
		return dst
	}
	return String(append(dst, key...), s)
}

// Compact appends the JSON text src with insignificant whitespace
// removed, which is how encoding/json writes a json.RawMessage with HTML
// escaping off.  Invalid JSON is an error, and dst comes back unchanged.
func Compact(dst, src []byte) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	if err := json.Compact(buf, src); err != nil {
		return dst, err
	}
	return buf.Bytes(), nil
}

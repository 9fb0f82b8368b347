package query

import (
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"avfda/internal/snapshot2"
)

// AppendEventsJSON appends one page of matching events to dst as JSON and
// returns the extended slice: exactly the bytes a json.Encoder with
// SetEscapeHTML(false) writes for the EventPage Events returns, trailing
// newline included. It walks the page as Events does but writes each row
// straight from the View's columns, without building an Event. The
// manufacturer, vehicle and cause are copied from the string table as
// they are stored, escaped only when they need it. A row encoding/json
// cannot encode, a NaN or infinite reaction time or a year outside
// 0..9999, is an error, and dst's extension is then undefined.
func (e *Engine) AppendEventsJSON(dst []byte, f Filter, pg Page) ([]byte, error) {
	start := len(dst)
	var rowErr error
	total, pg, err := e.pageRows(f, pg, func(i int) {
		if rowErr != nil {
			return
		}
		if len(dst) > start {
			dst = append(dst, ',')
		}
		dst, rowErr = e.appendEvent(dst, i)
	})
	if err == nil {
		err = rowErr
	}
	if err != nil {
		return dst, err
	}
	// The header carries the total, known only after the walk: append it
	// and rotate it in front of the rows.
	var buf [128]byte
	head := append(buf[:0], `{"total":`...)
	head = strconv.AppendInt(head, int64(total), 10)
	head = append(head, `,"offset":`...)
	head = strconv.AppendInt(head, int64(pg.Offset), 10)
	head = append(head, `,"limit":`...)
	head = strconv.AppendInt(head, int64(pg.Limit), 10)
	head = append(head, `,"events":[`...)
	rows := len(dst) - start
	dst = append(dst, head...)
	copy(dst[start+len(head):], dst[start:start+rows])
	copy(dst[start:], head)
	return append(dst, "]}\n"...), nil
}

// appendEvent appends row i as the JSON object encoding/json writes for
// its Event.
func (e *Engine) appendEvent(dst []byte, i int) ([]byte, error) {
	v := e.v
	dst = append(dst, `{"manufacturer":`...)
	dst = e.appendString(dst, uint32(v.Code(snapshot2.ColManufacturer, i)))
	n := len(dst)
	dst = append(dst, `,"vehicle":`...)
	k := len(dst)
	if dst = e.appendString(dst, v.VehicleID(i)); len(dst) == k+len(`""`) {
		dst = dst[:n] // omitempty: an empty vehicle leaves no key
	}
	dst = appendField(dst, `,"reportYear":`, v.ReportYear(i), true)
	t := v.Time(i)
	if y := t.Year(); y < 0 || y > 9999 {
		return dst, fmt.Errorf("query: event %d: time year %d outside [0,9999]", i, y)
	}
	dst = append(dst, `,"time":"`...)
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","cause":`...)
	dst = e.appendString(dst, v.CauseID(i))
	dst = appendField(dst, `,"tag":`, v.Tag(i), false)
	dst = appendField(dst, `,"category":`, v.Category(i), false)
	dst = appendField(dst, `,"modality":`, v.Modality(i), false)
	dst = appendField(dst, `,"road":`, v.Road(i), true)
	dst = appendField(dst, `,"weather":`, v.Weather(i), true)
	dst = append(dst, `,"reactionSeconds":`...)
	dst, err := appendFloat(dst, v.ReactionSeconds(i))
	if err != nil {
		return dst, fmt.Errorf("query: event %d: reactionSeconds: %w", i, err)
	}
	return append(dst, '}'), nil
}

// appendString appends string id as a JSON string. A string the clean
// memo has seen needs no escaping and is copied as stored; any other is
// copied, escaped behind the copy, and the escaped form moved over it.
// Escaping lengthens every byte it changes, so an escaped form two bytes
// (the quotes) longer than the string marks it clean.
func (e *Engine) appendString(dst []byte, id uint32) []byte {
	if e.clean[id].Load() {
		dst = append(dst, '"')
		dst = e.v.AppendString(dst, id)
		return append(dst, '"')
	}
	n := len(dst)
	dst = e.v.AppendString(dst, id)
	raw := len(dst) - n
	dst = appendJSONString(dst, dst[n:])
	if len(dst)-n == 2*raw+len(`""`) {
		e.clean[id].Store(true)
	}
	return append(dst[:n], dst[n+raw:]...)
}

// appendField appends a key and an enum's display name, and leaves both
// out when omitEmpty is set and the name is empty. Enum names are plain
// ASCII words, digits and punctuation that JSON carries as they are, for
// undefined codes too (TestEnumNamesNeedNoEscaping), so they are copied
// between quotes without a scan.
func appendField(dst []byte, key, name string, omitEmpty bool) []byte {
	if omitEmpty && name == "" {
		return dst
	}
	dst = append(append(dst, key...), '"')
	return append(append(dst, name...), '"')
}

// namedEscapes maps each control byte encoding/json escapes by name to
// that name.
var namedEscapes = [' ']byte{'\b': 'b', '\f': 'f', '\n': 'n', '\r': 'r', '\t': 't'}

// appendJSONString appends s as a JSON string, escaped exactly as
// encoding/json escapes it with SetEscapeHTML(false): '"', '\\' and
// control bytes are escaped (\b, \f, \n, \r and \t by name), invalid
// UTF-8 becomes \ufffd, and U+2028 and U+2029 become \u2028 and \u2029.
func appendJSONString[S ~string | ~[]byte](dst []byte, s S) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch {
			case b == '"' || b == '\\':
				dst = append(dst, '\\', b)
			case namedEscapes[b] != 0:
				dst = append(dst, '\\', namedEscapes[b])
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
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

// appendFloat appends x as encoding/json writes a float64: the shortest
// decimal that round-trips, in 'f' form unless |x| is below 1e-6 or at
// least 1e21, where the exponent form drops a leading zero from a
// negative two-digit exponent (1e-07 becomes 1e-7). NaN and the
// infinities have no JSON form and are an error.
func appendFloat(dst []byte, x float64) ([]byte, error) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return dst, fmt.Errorf("unsupported value %s", strconv.FormatFloat(x, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, x, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

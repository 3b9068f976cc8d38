package fsx

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"funcytuner/internal/xrand"
)

// A sealed record is the one on-disk envelope of the tuner's durable
// stores (results-repository entries, compile-cache spill files, fleet
// journal lines):
//
//	{"v":3,"key":"00c0ffee00c0ffee","sum":"1f2e3d4c5b6a7988","body":{…}}
//
// v is the store's format version, key the identity the record is filed
// under (omitted when empty), sum the hash of the body's exact bytes and
// body compact JSON. Unseal accepts exactly the bytes Seal writes, so a
// torn, truncated or bit-flipped record is refused before its body is
// interpreted. The version check is the caller's: a store may count a
// foreign version as a miss or refuse the whole file.

var errRecord = errors.New("fsx: not a sealed record under this key")

// Seal renders body as a sealed record. body must be valid JSON; it is
// compacted and then written verbatim, so the checksum covers exactly
// the bytes on disk. key must be printable ASCII without quotes or
// backslashes, so it needs no JSON escaping.
func Seal(version int, key string, body []byte) ([]byte, error) {
	if !validKey(key) {
		return nil, fmt.Errorf("fsx: record key %q needs escaping", key)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		return nil, fmt.Errorf("fsx: record body is not JSON: %w", err)
	}
	b := compact.Bytes()
	out := appendHead(make([]byte, 0, len(b)+len(key)+64), version, key)
	out = appendSum(out, b)
	out = append(out, `","body":`...)
	out = append(out, b...)
	return append(out, '}'), nil
}

// Unseal checks that data is a record Seal wrote under key and returns
// its version and body. The body aliases data.
func Unseal(data []byte, key string) (version int, body []byte, err error) {
	num, _, _ := bytes.Cut(bytes.TrimPrefix(data, []byte(`{"v":`)), []byte(","))
	version, err = strconv.Atoi(string(num))
	head := appendHead(nil, version, key)
	if err != nil || !validKey(key) || !bytes.HasPrefix(data, head) {
		return 0, nil, errRecord
	}
	const mid = `","body":`
	rest := data[len(head):]
	if len(rest) <= 16+len(mid) || string(rest[16:16+len(mid)]) != mid || rest[len(rest)-1] != '}' {
		return 0, nil, errRecord
	}
	body = rest[16+len(mid) : len(rest)-1]
	if !bytes.Equal(appendSum(nil, body), rest[:16]) || !isCompact(body) {
		return 0, nil, errRecord
	}
	return version, body, nil
}

// isCompact reports whether body is what json.Compact writes: valid
// JSON without whitespace outside strings. Unlike comparing against a
// compacted copy, it allocates nothing for a megabyte body.
func isCompact(body []byte) bool {
	inString := false
	for i := 0; i < len(body); i++ {
		switch c := body[i]; {
		case inString && c == '\\':
			i++
		case c == '"':
			inString = !inString
		case !inString && (c == ' ' || c == '\t' || c == '\n' || c == '\r'):
			return false
		}
	}
	return json.Valid(body)
}

func validKey(key string) bool {
	for i := 0; i < len(key); i++ {
		if c := key[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// appendHead appends everything before the checksum digits.
func appendHead(dst []byte, version int, key string) []byte {
	dst = strconv.AppendInt(append(dst, `{"v":`...), int64(version), 10)
	if key != "" {
		dst = append(append(append(dst, `,"key":"`...), key...), '"')
	}
	return append(dst, `,"sum":"`...)
}

// appendSum appends the checksum of body: xrand.HashString as 16 hex
// digits.
func appendSum(dst, body []byte) []byte {
	return fmt.Appendf(dst, "%016x", xrand.HashString(string(body)))
}

// HexFloat renders v losslessly as a Go hex float ("0x1.8p+00"; ±Inf
// as "+Inf"/"-Inf"), the float encoding of every record, checkpoint and
// wire message the tuner writes.
func HexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// ParseHexFloat inverts HexFloat. It refuses NaN, which no stored
// quantity is, and accepts ±Inf, the time of a lost evaluation.
func ParseHexFloat(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && math.IsNaN(v) {
		return 0, fmt.Errorf("fsx: NaN float %q", s)
	}
	return v, err
}

package serve

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"
	"unicode"
	"unicode/utf8"

	"sizeless/internal/monitoring"
)

// decodeIngest decodes a whole POST /v1/ingest body into its windows. It
// accepts exactly the bodies that encoding/json's Decoder with
// DisallowUnknownFields accepts into an IngestRequest when nothing but
// JSON whitespace follows the object, and yields the same map bit for bit
// (FuzzIngestDecode holds it to that): field names match
// case-insensitively under encoding/json's folding, null leaves its
// target untouched, a short Metrics array zero-fills the rest and a long
// one's extra elements are skipped, duplicate keys overwrite (the windows
// maps merge), and the Duration fields take integers only. Unlike
// Decoder.Decode, it rejects data after the object.
//
// Each window gets its own slice: the ingest queue adopts windows without
// copying them.
func decodeIngest(body []byte) (map[string][]monitoring.Invocation, error) {
	d := ingestDecoder{data: body}
	windows, err := d.request()
	if err != nil {
		return nil, err
	}
	if d.ws(); d.pos < len(d.data) {
		return nil, d.syntaxError("after the request object")
	}
	return windows, nil
}

// maxNestingDepth is encoding/json's limit on nested arrays and objects.
const maxNestingDepth = 10000

// Upper-case forms of the body's field names, as encoding/json folds them.
const (
	foldedWindows   = "WINDOWS"
	foldedStart     = "START"
	foldedDuration  = "DURATION"
	foldedColdStart = "COLDSTART"
	foldedMetrics   = "METRICS"
)

// ingestDecoder walks one body. scratch is the window being decoded,
// reused across windows and copied out once the window's length is known.
type ingestDecoder struct {
	data    []byte
	pos     int
	depth   int
	scratch []monitoring.Invocation
}

func (d *ingestDecoder) syntaxError(what string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("unexpected end of JSON input %s", what)
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.data[d.pos], what, d.pos)
}

func (d *ingestDecoder) typeError(value, target string) error {
	return fmt.Errorf("cannot unmarshal %s into %s at offset %d", value, target, d.pos)
}

// ws skips JSON whitespace.
func (d *ingestDecoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *ingestDecoder) peek() byte {
	d.ws()
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// open consumes the '{' or '[' at d.pos.
func (d *ingestDecoder) open() error {
	d.depth++
	if d.depth > maxNestingDepth {
		return fmt.Errorf("exceeded max depth at offset %d", d.pos)
	}
	d.pos++
	return nil
}

// next advances to the next element of the open container closed by end,
// n elements in: it consumes the ',' before it, or the closing end and
// reports false.
func (d *ingestDecoder) next(end byte, n int) (bool, error) {
	c := d.peek()
	if c == end {
		d.pos++
		d.depth--
		return false, nil
	}
	if n > 0 {
		if c != ',' {
			if end == '}' {
				return false, d.syntaxError("after object key:value pair")
			}
			return false, d.syntaxError("after array element")
		}
		d.pos++
		d.ws()
	}
	return true, nil
}

// key reads an object key and its ':' and returns the key's token,
// quotes included; plain reports that the token is ASCII without escapes,
// so that the bytes between the quotes are the key itself.
func (d *ingestDecoder) key() (tok []byte, plain bool, err error) {
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return nil, false, d.syntaxError("looking for beginning of object key string")
	}
	start := d.pos
	if plain, err = d.str(); err != nil {
		return nil, false, err
	}
	tok = d.data[start:d.pos]
	if d.peek() != ':' {
		return nil, false, d.syntaxError("after object key")
	}
	d.pos++
	d.ws()
	return tok, plain, nil
}

// str consumes the string token at d.pos and reports whether it is plain
// ASCII without escapes.
func (d *ingestDecoder) str() (plain bool, err error) {
	plain = true
	d.pos++
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			return plain, nil
		case c == '\\':
			plain = false
			d.pos++
			if d.pos >= len(d.data) {
				return false, d.syntaxError("in string escape code")
			}
			switch d.data[d.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				for i := 0; i < 4; i++ {
					if d.pos >= len(d.data) || !isHex(d.data[d.pos]) {
						return false, d.syntaxError("in \\u hexadecimal character escape")
					}
					d.pos++
				}
			default:
				return false, d.syntaxError("in string escape code")
			}
		case c < 0x20:
			return false, d.syntaxError("in string literal")
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			d.pos++
		}
	}
	return false, d.syntaxError("in string literal")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote returns the string a key token read by key stands for.
func unquote(tok []byte, plain bool) string {
	if plain {
		return string(tok[1 : len(tok)-1])
	}
	// The token passed the grammar check in str; encoding/json does the
	// unescaping, including its U+FFFD replacements.
	var s string
	_ = json.Unmarshal(tok, &s)
	return s
}

// fieldIs reports whether a key token selects the field whose folded
// name is folded, the way encoding/json matches struct fields.
func fieldIs(tok []byte, plain bool, folded string) bool {
	if plain {
		raw := tok[1 : len(tok)-1]
		if len(raw) != len(folded) {
			return false
		}
		for i, c := range raw {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if c != folded[i] {
				return false
			}
		}
		return true
	}
	key := unquote(tok, plain)
	i := 0
	for _, r := range key {
		if r >= utf8.RuneSelf {
			r = foldRune(r)
		} else if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		if r >= utf8.RuneSelf || i >= len(folded) || byte(r) != folded[i] {
			return false
		}
		i++
	}
	return i == len(folded)
}

// foldRune is encoding/json's case folding of a non-ASCII rune: the
// smallest rune in its simple folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// literal consumes the literal word at d.pos.
func (d *ingestDecoder) literal(word string) error {
	if len(d.data)-d.pos < len(word) || string(d.data[d.pos:d.pos+len(word)]) != word {
		for i := 0; i < len(word) && d.pos < len(d.data) && d.data[d.pos] == word[i]; i++ {
			d.pos++
		}
		return d.syntaxError("in literal " + word)
	}
	d.pos += len(word)
	return nil
}

// null consumes a null at d.pos if there is one.
func (d *ingestDecoder) null() (bool, error) {
	if d.pos < len(d.data) && d.data[d.pos] == 'n' {
		return true, d.literal("null")
	}
	return false, nil
}

// enter consumes a null at d.pos and reports true, or opens the container
// that delim starts; any other value is the wrong type for target.
func (d *ingestDecoder) enter(delim byte, target string) (bool, error) {
	if isNull, err := d.null(); isNull || err != nil {
		return isNull, err
	}
	if d.pos >= len(d.data) || d.data[d.pos] != delim {
		return false, d.mismatch(target)
	}
	return false, d.open()
}

// number consumes the number at d.pos, checked against the JSON number
// grammar, and returns its bytes.
func (d *ingestDecoder) number() ([]byte, error) {
	data, start := d.data, d.pos
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digits(data, i+1)
	default:
		d.pos = i
		return nil, d.syntaxError("in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		j := digits(data, i+1)
		if j == i+1 {
			d.pos = j
			return nil, d.syntaxError("after decimal point in numeric literal")
		}
		i = j
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := digits(data, i)
		if j == i {
			d.pos = j
			return nil, d.syntaxError("in exponent of numeric literal")
		}
		i = j
	}
	d.pos = i
	return data[start:i], nil
}

// atNumber reports whether a number starts at d.pos.
func (d *ingestDecoder) atNumber() bool {
	if d.pos >= len(d.data) {
		return false
	}
	c := d.data[d.pos]
	return c == '-' || '0' <= c && c <= '9'
}

// digits returns the end of the run of decimal digits at data[i:].
func digits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// mismatch reports the value at d.pos as the wrong type for target, or as
// a syntax error when no value starts there.
func (d *ingestDecoder) mismatch(target string) error {
	if d.pos >= len(d.data) {
		return d.syntaxError("looking for beginning of value")
	}
	switch c := d.data[d.pos]; {
	case c == '{':
		return d.typeError("object", target)
	case c == '[':
		return d.typeError("array", target)
	case c == '"':
		return d.typeError("string", target)
	case c == 't' || c == 'f':
		return d.typeError("bool", target)
	case d.atNumber():
		return d.typeError("number", target)
	}
	return d.syntaxError("looking for beginning of value")
}

// skip consumes any JSON value.
func (d *ingestDecoder) skip() error {
	if d.pos >= len(d.data) {
		return d.syntaxError("looking for beginning of value")
	}
	switch c := d.data[d.pos]; {
	case c == '{':
		if err := d.open(); err != nil {
			return err
		}
		for n := 0; ; n++ {
			more, err := d.next('}', n)
			if err != nil || !more {
				return err
			}
			if _, _, err := d.key(); err != nil {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := d.open(); err != nil {
			return err
		}
		for n := 0; ; n++ {
			more, err := d.next(']', n)
			if err != nil || !more {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	_, err := d.number()
	return err
}

// request decodes the top-level value: an IngestRequest object or null.
func (d *ingestDecoder) request() (map[string][]monitoring.Invocation, error) {
	d.ws()
	if isNull, err := d.enter('{', "serve.IngestRequest"); isNull || err != nil {
		return nil, err
	}
	var windows map[string][]monitoring.Invocation
	for n := 0; ; n++ {
		more, err := d.next('}', n)
		if err != nil {
			return nil, err
		}
		if !more {
			return windows, nil
		}
		tok, plain, err := d.key()
		if err != nil {
			return nil, err
		}
		if !fieldIs(tok, plain, foldedWindows) {
			return nil, fmt.Errorf("json: unknown field %q", unquote(tok, plain))
		}
		if isNull, err := d.enter('{', "IngestRequest.windows"); err != nil {
			return nil, err
		} else if isNull {
			windows = nil
			continue
		}
		if windows == nil {
			windows = make(map[string][]monitoring.Invocation)
		}
		if err := d.windows(windows); err != nil {
			return nil, err
		}
	}
}

// windows decodes the members of the windows object just entered into m.
func (d *ingestDecoder) windows(m map[string][]monitoring.Invocation) error {
	for n := 0; ; n++ {
		more, err := d.next('}', n)
		if err != nil || !more {
			return err
		}
		tok, plain, err := d.key()
		if err != nil {
			return err
		}
		fn := unquote(tok, plain)
		invs, err := d.window()
		if err != nil {
			return err
		}
		m[fn] = invs
	}
}

// window decodes one function's invocation array, or null, into a fresh
// slice of exactly its length.
func (d *ingestDecoder) window() ([]monitoring.Invocation, error) {
	if isNull, err := d.enter('[', "[]monitoring.Invocation"); isNull || err != nil {
		return nil, err
	}
	d.scratch = d.scratch[:0]
	for n := 0; ; n++ {
		more, err := d.next(']', n)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		d.scratch = append(d.scratch, monitoring.Invocation{})
		if err := d.invocation(&d.scratch[n]); err != nil {
			return nil, err
		}
	}
	return append(make([]monitoring.Invocation, 0, len(d.scratch)), d.scratch...), nil
}

// invocation decodes one invocation object, or null, into inv.
func (d *ingestDecoder) invocation(inv *monitoring.Invocation) error {
	if isNull, err := d.enter('{', "monitoring.Invocation"); isNull || err != nil {
		return err
	}
	for n := 0; ; n++ {
		more, err := d.next('}', n)
		if err != nil || !more {
			return err
		}
		tok, plain, err := d.key()
		if err != nil {
			return err
		}
		switch {
		case fieldIs(tok, plain, foldedStart):
			err = d.duration(&inv.Start, "Invocation.Start")
		case fieldIs(tok, plain, foldedDuration):
			err = d.duration(&inv.Duration, "Invocation.Duration")
		case fieldIs(tok, plain, foldedColdStart):
			err = d.bool(&inv.ColdStart)
		case fieldIs(tok, plain, foldedMetrics):
			err = d.metrics(&inv.Metrics)
		default:
			return fmt.Errorf("json: unknown field %q", unquote(tok, plain))
		}
		if err != nil {
			return err
		}
	}
}

// duration decodes an integer, or null, into v.
func (d *ingestDecoder) duration(v *time.Duration, target string) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	if !d.atNumber() {
		return d.mismatch(target)
	}
	start := d.pos
	num, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil {
		d.pos = start
		return d.typeError("number "+string(num), target+" of type time.Duration")
	}
	*v = time.Duration(n)
	return nil
}

// bool decodes true, false or null into v.
func (d *ingestDecoder) bool(v *bool) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case 't':
		*v = true
		return d.literal("true")
	case 'f':
		*v = false
		return d.literal("false")
	}
	return d.mismatch("Invocation.ColdStart")
}

// metrics decodes a number array, or null, into the vector in place: a
// null element keeps its value, missing elements are zeroed, and elements
// past the vector's length are skipped unchecked.
func (d *ingestDecoder) metrics(v *monitoring.Vector) error {
	if isNull, err := d.enter('[', "Invocation.Metrics"); isNull || err != nil {
		return err
	}
	n := 0
	for ; ; n++ {
		more, err := d.next(']', n)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if n >= len(v) {
			if err := d.skip(); err != nil {
				return err
			}
			continue
		}
		if isNull, err := d.null(); err != nil {
			return err
		} else if isNull {
			continue
		}
		if !d.atNumber() {
			return d.mismatch("Invocation.Metrics element")
		}
		start := d.pos
		num, err := d.number()
		if err != nil {
			return err
		}
		f, err := strconv.ParseFloat(string(num), 64)
		if err != nil {
			d.pos = start
			return d.typeError("number "+string(num), "Invocation.Metrics element of type float64")
		}
		v[n] = f
	}
	for ; n < len(v); n++ {
		v[n] = 0
	}
	return nil
}

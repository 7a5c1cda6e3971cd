// Package jsonscan holds the JSON scanning primitives behind the
// hand-written decoders of the ingest body (internal/serve) and the model
// file (internal/core, internal/nn). Those decoders walk a whole document
// in one pass and accept exactly what encoding/json accepts: the grammar,
// the nesting limit, and the way struct field names match keys are
// encoding/json's. FuzzIngestDecode and FuzzModelDecode hold the decoders
// built on it to that against encoding/json itself.
//
// Numbers are converted in the pass that checks their grammar: Float
// reads the significant digits into an integer and a decimal exponent as
// it scans, then converts them exactly or with Eisel–Lemire, and hands
// only the rare number neither can decide to strconv.ParseFloat.
// FuzzFloat holds it to the grammar check followed by
// strconv.ParseFloat, bit for bit.
package jsonscan

import (
	"encoding/json"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// MaxDepth is encoding/json's limit on nested arrays and objects.
const MaxDepth = 10000

// Scanner walks one JSON document held in memory. Pos is the offset of the
// next unread byte; a decoder saves and restores the whole Scanner value
// to rewind.
type Scanner struct {
	Data  []byte
	Pos   int
	depth int
}

// SyntaxError reports the byte at Pos as unexpected; what says where.
func (s *Scanner) SyntaxError(what string) error {
	if s.Pos >= len(s.Data) {
		return fmt.Errorf("unexpected end of JSON input %s", what)
	}
	return fmt.Errorf("invalid character %q %s at offset %d", s.Data[s.Pos], what, s.Pos)
}

// TypeError reports a value that does not fit its target.
func (s *Scanner) TypeError(value, target string) error {
	return fmt.Errorf("cannot unmarshal %s into %s at offset %d", value, target, s.Pos)
}

// WS skips JSON whitespace.
func (s *Scanner) WS() {
	for s.Pos < len(s.Data) {
		switch s.Data[s.Pos] {
		case ' ', '\t', '\n', '\r':
			s.Pos++
		default:
			return
		}
	}
}

// Peek skips whitespace and returns the next byte, 0 at the end.
func (s *Scanner) Peek() byte {
	s.WS()
	if s.Pos < len(s.Data) {
		return s.Data[s.Pos]
	}
	return 0
}

// End checks that nothing but whitespace follows the top-level value.
func (s *Scanner) End(what string) error {
	if s.WS(); s.Pos < len(s.Data) {
		return s.SyntaxError(what)
	}
	return nil
}

// Open consumes the '{' or '[' at Pos.
func (s *Scanner) Open() error {
	s.depth++
	if s.depth > MaxDepth {
		return fmt.Errorf("exceeded max depth at offset %d", s.Pos)
	}
	s.Pos++
	return nil
}

// Next advances to the next element of the open container closed by end,
// n elements in: it consumes the ',' before it, or the closing end and
// reports false.
func (s *Scanner) Next(end byte, n int) (bool, error) {
	c := s.Peek()
	if c == end {
		s.Pos++
		s.depth--
		return false, nil
	}
	if n > 0 {
		if c != ',' {
			if end == '}' {
				return false, s.SyntaxError("after object key:value pair")
			}
			return false, s.SyntaxError("after array element")
		}
		s.Pos++
		s.WS()
	}
	return true, nil
}

// Key reads an object key and its ':' and returns the key's token,
// quotes included; plain reports that the token is ASCII without escapes,
// so that the bytes between the quotes are the key itself.
func (s *Scanner) Key() (tok []byte, plain bool, err error) {
	if s.Pos >= len(s.Data) || s.Data[s.Pos] != '"' {
		return nil, false, s.SyntaxError("looking for beginning of object key string")
	}
	start := s.Pos
	if plain, err = s.Str(); err != nil {
		return nil, false, err
	}
	tok = s.Data[start:s.Pos]
	if s.Peek() != ':' {
		return nil, false, s.SyntaxError("after object key")
	}
	s.Pos++
	s.WS()
	return tok, plain, nil
}

// Str consumes the string token at Pos and reports whether it is plain
// ASCII without escapes.
func (s *Scanner) Str() (plain bool, err error) {
	plain = true
	s.Pos++
	for s.Pos < len(s.Data) {
		c := s.Data[s.Pos]
		switch {
		case c == '"':
			s.Pos++
			return plain, nil
		case c == '\\':
			plain = false
			s.Pos++
			if s.Pos >= len(s.Data) {
				return false, s.SyntaxError("in string escape code")
			}
			switch s.Data[s.Pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.Pos++
			case 'u':
				s.Pos++
				for i := 0; i < 4; i++ {
					if s.Pos >= len(s.Data) || !isHex(s.Data[s.Pos]) {
						return false, s.SyntaxError("in \\u hexadecimal character escape")
					}
					s.Pos++
				}
			default:
				return false, s.SyntaxError("in string escape code")
			}
		case c < 0x20:
			return false, s.SyntaxError("in string literal")
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			s.Pos++
		}
	}
	return false, s.SyntaxError("in string literal")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// Unquote returns the string a key token read by Key stands for.
func Unquote(tok []byte, plain bool) string {
	if plain {
		return string(tok[1 : len(tok)-1])
	}
	// The token passed the grammar check in Str; encoding/json does the
	// unescaping, including its U+FFFD replacements.
	var s string
	_ = json.Unmarshal(tok, &s)
	return s
}

// FieldIs reports whether a key token selects the struct field whose
// upper-cased ASCII name is folded, the way encoding/json matches fields:
// case-insensitively under its Unicode folding.
func FieldIs(tok []byte, plain bool, folded string) bool {
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
	key := Unquote(tok, plain)
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

// Literal consumes the literal word at Pos.
func (s *Scanner) Literal(word string) error {
	if len(s.Data)-s.Pos < len(word) || string(s.Data[s.Pos:s.Pos+len(word)]) != word {
		for i := 0; i < len(word) && s.Pos < len(s.Data) && s.Data[s.Pos] == word[i]; i++ {
			s.Pos++
		}
		return s.SyntaxError("in literal " + word)
	}
	s.Pos += len(word)
	return nil
}

// Null consumes a null at Pos if there is one.
func (s *Scanner) Null() (bool, error) {
	if s.Pos < len(s.Data) && s.Data[s.Pos] == 'n' {
		return true, s.Literal("null")
	}
	return false, nil
}

// Enter consumes a null at Pos and reports true, or opens the container
// that delim starts; any other value is the wrong type for target.
func (s *Scanner) Enter(delim byte, target string) (bool, error) {
	if isNull, err := s.Null(); isNull || err != nil {
		return isNull, err
	}
	if s.Pos >= len(s.Data) || s.Data[s.Pos] != delim {
		return false, s.Mismatch(target)
	}
	return false, s.Open()
}

// Number consumes the number at Pos, checked against the JSON number
// grammar, and returns its bytes.
func (s *Scanner) Number() ([]byte, error) {
	start := s.Pos
	if _, err := s.number(); err != nil {
		return nil, err
	}
	return s.Data[start:s.Pos], nil
}

// decimal is a scanned number: man × 10^exp10, negated if neg. man holds
// the first 19 significant digits, which always fit in a uint64; trunc
// reports that a non-zero digit after them was dropped.
type decimal struct {
	man        uint64
	exp10      int
	neg, trunc bool
}

// maxMantDigits is the number of significant digits decimal.man holds.
const maxMantDigits = 19

// number consumes the number at Pos, checked against the JSON number
// grammar, and returns its value as a decimal. It reads the digits the
// way strconv.ParseFloat does, exponent cap included, so that a decimal
// converts to the float64 strconv would return.
func (s *Scanner) number() (d decimal, err error) {
	data, i := s.Data, s.Pos
	if i < len(data) && data[i] == '-' {
		d.neg = true
		i++
	}
	nd := 0 // significant digits read into man
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		for ; i < len(data); i++ {
			c := data[i] - '0'
			if c > 9 {
				break
			}
			if nd < maxMantDigits {
				d.man = d.man*10 + uint64(c)
				nd++
			} else {
				d.exp10++
				d.trunc = d.trunc || c != 0
			}
		}
	default:
		s.Pos = i
		return d, s.SyntaxError("in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		i++
		frac := i
		if nd == 0 { // leading zeros only move the point
			for ; i < len(data) && data[i] == '0'; i++ {
				d.exp10--
			}
		}
		for ; i < len(data); i++ {
			c := data[i] - '0'
			if c > 9 {
				break
			}
			if nd < maxMantDigits {
				d.man = d.man*10 + uint64(c)
				nd++
				d.exp10--
			} else {
				d.trunc = d.trunc || c != 0
			}
		}
		if i == frac {
			s.Pos = i
			return d, s.SyntaxError("after decimal point in numeric literal")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		neg := i < len(data) && data[i] == '-'
		if neg || i < len(data) && data[i] == '+' {
			i++
		}
		digits, e := i, 0
		for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
			if e < 10000 { // strconv stops reading the exponent here
				e = e*10 + int(data[i]-'0')
			}
		}
		if i == digits {
			s.Pos = i
			return d, s.SyntaxError("in exponent of numeric literal")
		}
		if neg {
			e = -e
		}
		d.exp10 += e
	}
	s.Pos = i
	return d, nil
}

// AtNumber reports whether a number starts at Pos.
func (s *Scanner) AtNumber() bool {
	if s.Pos >= len(s.Data) {
		return false
	}
	c := s.Data[s.Pos]
	return c == '-' || '0' <= c && c <= '9'
}

// Float decodes the number at Pos into a float64 as encoding/json does: a
// value that does not start a number is the wrong type for target, and
// one out of float64's range is an error. It checks the grammar and
// converts in the same pass over the digits: an exact float64 product or
// quotient where one exists, else Eisel–Lemire. Only a number with a
// non-zero digit past its 19th significant one, or one Eisel–Lemire
// cannot decide (a half-way case, or the subnormal and overflow ranges),
// is handed to strconv.ParseFloat, which also reports the range errors.
// FuzzFloat holds it to strconv.ParseFloat on the number's bytes.
func (s *Scanner) Float(target string) (float64, error) {
	if !s.AtNumber() {
		return 0, s.Mismatch(target)
	}
	start := s.Pos
	d, err := s.number()
	if err != nil {
		return 0, err
	}
	if !d.trunc {
		if f, ok := float(d.man, d.exp10, d.neg); ok {
			return f, nil
		}
	}
	num := s.Data[start:s.Pos]
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		s.Pos = start
		return 0, s.TypeError("number "+string(num), target+" of type float64")
	}
	return f, nil
}

// Mismatch reports the value at Pos as the wrong type for target, or as
// a syntax error when no value starts there.
func (s *Scanner) Mismatch(target string) error {
	if s.Pos >= len(s.Data) {
		return s.SyntaxError("looking for beginning of value")
	}
	switch c := s.Data[s.Pos]; {
	case c == '{':
		return s.TypeError("object", target)
	case c == '[':
		return s.TypeError("array", target)
	case c == '"':
		return s.TypeError("string", target)
	case c == 't' || c == 'f':
		return s.TypeError("bool", target)
	case s.AtNumber():
		return s.TypeError("number", target)
	}
	return s.SyntaxError("looking for beginning of value")
}

// Skip consumes any JSON value.
func (s *Scanner) Skip() error {
	if s.Pos >= len(s.Data) {
		return s.SyntaxError("looking for beginning of value")
	}
	switch c := s.Data[s.Pos]; {
	case c == '{':
		if err := s.Open(); err != nil {
			return err
		}
		for n := 0; ; n++ {
			more, err := s.Next('}', n)
			if err != nil || !more {
				return err
			}
			if _, _, err := s.Key(); err != nil {
				return err
			}
			if err := s.Skip(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := s.Open(); err != nil {
			return err
		}
		for n := 0; ; n++ {
			more, err := s.Next(']', n)
			if err != nil || !more {
				return err
			}
			if err := s.Skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, err := s.Str()
		return err
	case c == 't':
		return s.Literal("true")
	case c == 'f':
		return s.Literal("false")
	case c == 'n':
		return s.Literal("null")
	}
	_, err := s.Number()
	return err
}

// Unmarshal consumes the value at Pos and hands its bytes to
// json.Unmarshal into v, so that v is decoded exactly as encoding/json
// decodes it within a document.
func (s *Scanner) Unmarshal(v any) error {
	start := s.Pos
	if err := s.Skip(); err != nil {
		return err
	}
	return json.Unmarshal(s.Data[start:s.Pos], v)
}

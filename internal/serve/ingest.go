package serve

import (
	"fmt"
	"strconv"
	"time"

	"sizeless/internal/jsonscan"
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
	d := ingestDecoder{Scanner: jsonscan.Scanner{Data: body}}
	windows, err := d.request()
	if err != nil {
		return nil, err
	}
	if err := d.End("after the request object"); err != nil {
		return nil, err
	}
	return windows, nil
}

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
	jsonscan.Scanner
	scratch []monitoring.Invocation
}

// request decodes the top-level value: an IngestRequest object or null.
func (d *ingestDecoder) request() (map[string][]monitoring.Invocation, error) {
	d.WS()
	if isNull, err := d.Enter('{', "serve.IngestRequest"); isNull || err != nil {
		return nil, err
	}
	var windows map[string][]monitoring.Invocation
	for n := 0; ; n++ {
		more, err := d.Next('}', n)
		if err != nil {
			return nil, err
		}
		if !more {
			return windows, nil
		}
		tok, plain, err := d.Key()
		if err != nil {
			return nil, err
		}
		if !jsonscan.FieldIs(tok, plain, foldedWindows) {
			return nil, fmt.Errorf("json: unknown field %q", jsonscan.Unquote(tok, plain))
		}
		if isNull, err := d.Enter('{', "IngestRequest.windows"); err != nil {
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
		more, err := d.Next('}', n)
		if err != nil || !more {
			return err
		}
		tok, plain, err := d.Key()
		if err != nil {
			return err
		}
		fn := jsonscan.Unquote(tok, plain)
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
	if isNull, err := d.Enter('[', "[]monitoring.Invocation"); isNull || err != nil {
		return nil, err
	}
	d.scratch = d.scratch[:0]
	for n := 0; ; n++ {
		more, err := d.Next(']', n)
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
	if isNull, err := d.Enter('{', "monitoring.Invocation"); isNull || err != nil {
		return err
	}
	for n := 0; ; n++ {
		more, err := d.Next('}', n)
		if err != nil || !more {
			return err
		}
		tok, plain, err := d.Key()
		if err != nil {
			return err
		}
		switch {
		case jsonscan.FieldIs(tok, plain, foldedStart):
			err = d.duration(&inv.Start, "Invocation.Start")
		case jsonscan.FieldIs(tok, plain, foldedDuration):
			err = d.duration(&inv.Duration, "Invocation.Duration")
		case jsonscan.FieldIs(tok, plain, foldedColdStart):
			err = d.bool(&inv.ColdStart)
		case jsonscan.FieldIs(tok, plain, foldedMetrics):
			err = d.metrics(&inv.Metrics)
		default:
			return fmt.Errorf("json: unknown field %q", jsonscan.Unquote(tok, plain))
		}
		if err != nil {
			return err
		}
	}
}

// duration decodes an integer, or null, into v.
func (d *ingestDecoder) duration(v *time.Duration, target string) error {
	if isNull, err := d.Null(); isNull || err != nil {
		return err
	}
	if !d.AtNumber() {
		return d.Mismatch(target)
	}
	start := d.Pos
	num, err := d.Number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil {
		d.Pos = start
		return d.TypeError("number "+string(num), target+" of type time.Duration")
	}
	*v = time.Duration(n)
	return nil
}

// bool decodes true, false or null into v.
func (d *ingestDecoder) bool(v *bool) error {
	switch d.Peek() {
	case 'n':
		return d.Literal("null")
	case 't':
		*v = true
		return d.Literal("true")
	case 'f':
		*v = false
		return d.Literal("false")
	}
	return d.Mismatch("Invocation.ColdStart")
}

// metrics decodes a number array, or null, into the vector in place: a
// null element keeps its value, missing elements are zeroed, and elements
// past the vector's length are skipped unchecked.
func (d *ingestDecoder) metrics(v *monitoring.Vector) error {
	if isNull, err := d.Enter('[', "Invocation.Metrics"); isNull || err != nil {
		return err
	}
	n := 0
	for ; ; n++ {
		more, err := d.Next(']', n)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if n >= len(v) {
			if err := d.Skip(); err != nil {
				return err
			}
			continue
		}
		if isNull, err := d.Null(); err != nil {
			return err
		} else if isNull {
			continue
		}
		f, err := d.Float("Invocation.Metrics element")
		if err != nil {
			return err
		}
		v[n] = f
	}
	for ; n < len(v); n++ {
		v[n] = 0
	}
	return nil
}

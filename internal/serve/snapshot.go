package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"sizeless"
	"sizeless/internal/recommender"
)

// Snapshot file format, line-oriented so corruption reports carry a line
// number (the PR 3/7 parser-hardening convention):
//
//	line 1            header JSON: magic, version, function count, model fingerprint
//	line 2            the model, exactly as core.Model.Save writes it
//	lines 3..N+2      one recommender.FunctionSnapshot JSON per function,
//	                  in first-seen order
//	last line         trailer JSON: function count again + CRC-32 (IEEE)
//	                  over the payload lines (model + functions, bytes
//	                  including newlines)
//
// The trailer makes truncation detectable: a snapshot cut off mid-write
// fails restore with the line it stopped at instead of silently loading a
// partial fleet. Writes go through a temp file, synced to disk, and a
// rename, whose directory entry is synced too, so a crash during a
// snapshot leaves the previous snapshot intact.

const (
	snapshotMagic   = "sizeless-fleet-snapshot"
	snapshotVersion = 1
)

type snapshotHeader struct {
	Magic            string `json:"magic"`
	Version          int    `json:"version"`
	Functions        int    `json:"functions"`
	ModelFingerprint string `json:"model_fingerprint"`
}

type snapshotTrailer struct {
	Functions int    `json:"functions"`
	CRC32     string `json:"payload_crc32"`
}

// SnapshotData is a decoded snapshot: the serialized model plus every
// function's durable state, in first-seen order.
type SnapshotData struct {
	ModelFingerprint string
	Model            []byte
	Functions        []recommender.FunctionSnapshot
}

// Snapshot atomically writes the current fleet state — serving model,
// per-function statuses, baselines, and pending windows — to
// cfg.SnapshotPath. Each function is captured under its shard lock, so
// snapshotting never stops ingestion; consistency is per function, exactly
// like Fleet.
func (s *Server) Snapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	path := s.cfg.SnapshotPath
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := s.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	s.snapshots.Add(1)
	s.lastSnapshot.Store(time.Now())
	s.cfg.Logf("serve: snapshot written to %s", path)
	return nil
}

// syncDir flushes a directory's entries, such as a rename into it, to
// disk.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// WriteSnapshot streams the snapshot to w. It encodes the model once:
// saving records the model's fingerprint, which the header then reads.
func (s *Server) WriteSnapshot(w io.Writer) error {
	fns := s.svc.Export()
	// Read the model after Export, so no recommendation in the file comes
	// from a model newer than the one the header names.
	pred := s.cfg.Predictor.Serving(s.svc)
	var model bytes.Buffer
	if err := pred.Save(&model); err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	fp, err := pred.Fingerprint()
	if err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}

	bw := bufio.NewWriter(w)
	head, err := json.Marshal(snapshotHeader{
		Magic:            snapshotMagic,
		Version:          snapshotVersion,
		Functions:        len(fns),
		ModelFingerprint: fp,
	})
	if err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	bw.Write(head)
	bw.WriteByte('\n')

	crc := crc32.NewIEEE()
	payload := io.MultiWriter(bw, crc)
	payload.Write(model.Bytes()) // Model.Save emits exactly one \n-terminated line
	for i := range fns {
		rec, err := json.Marshal(&fns[i])
		if err != nil {
			return fmt.Errorf("serve: snapshot: function %s: %w", fns[i].Status.FunctionID, err)
		}
		payload.Write(rec)
		payload.Write([]byte{'\n'})
	}

	tail, err := json.Marshal(snapshotTrailer{
		Functions: len(fns),
		CRC32:     fmt.Sprintf("%08x", crc.Sum32()),
	})
	if err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	bw.Write(tail)
	bw.WriteByte('\n')
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot parses and verifies a snapshot stream. Truncated or corrupt
// input is rejected with the offending line number; a payload whose CRC
// disagrees with the trailer is rejected outright.
func ReadSnapshot(r io.Reader) (*SnapshotData, error) {
	// ReadBytes returns whole lines of any length; the default buffer size
	// is enough for the multi-kilobyte model and function lines.
	br := bufio.NewReader(r)
	line := 0
	next := func() ([]byte, error) {
		line++
		b, err := br.ReadBytes('\n')
		if errors.Is(err, io.EOF) && len(b) > 0 {
			return nil, fmt.Errorf("serve: snapshot: line %d: unterminated line (truncated snapshot?)", line)
		}
		if err != nil {
			return nil, fmt.Errorf("serve: snapshot: line %d: %w (truncated snapshot?)", line, err)
		}
		return b, nil
	}

	hb, err := next()
	if err != nil {
		return nil, err
	}
	var head snapshotHeader
	if err := json.Unmarshal(hb, &head); err != nil {
		return nil, fmt.Errorf("serve: snapshot: line 1: invalid header: %w", err)
	}
	if head.Magic != snapshotMagic {
		return nil, fmt.Errorf("serve: snapshot: line 1: magic %q, want %q", head.Magic, snapshotMagic)
	}
	if head.Version != snapshotVersion {
		return nil, fmt.Errorf("serve: snapshot: line 1: unsupported version %d", head.Version)
	}
	if head.Functions < 0 {
		return nil, fmt.Errorf("serve: snapshot: line 1: negative function count %d", head.Functions)
	}

	crc := crc32.NewIEEE()
	model, err := next()
	if err != nil {
		return nil, err
	}
	crc.Write(model)
	if !json.Valid(model) {
		return nil, fmt.Errorf("serve: snapshot: line 2: model is not valid JSON")
	}

	// The header count is untrusted: it bounds the loop, which stops at the
	// first missing line, but it must not size an allocation.
	var fns []recommender.FunctionSnapshot
	for i := 0; i < head.Functions; i++ {
		fb, err := next()
		if err != nil {
			return nil, err
		}
		crc.Write(fb)
		var fn recommender.FunctionSnapshot
		dec := json.NewDecoder(bytes.NewReader(fb))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&fn); err != nil {
			return nil, fmt.Errorf("serve: snapshot: line %d: invalid function record: %w", line, err)
		}
		if fn.Status.FunctionID == "" {
			return nil, fmt.Errorf("serve: snapshot: line %d: function record with empty ID", line)
		}
		fns = append(fns, fn)
	}

	tb, err := next()
	if err != nil {
		return nil, err
	}
	var tail snapshotTrailer
	if err := json.Unmarshal(tb, &tail); err != nil {
		return nil, fmt.Errorf("serve: snapshot: line %d: invalid trailer: %w", line, err)
	}
	if tail.Functions != head.Functions {
		return nil, fmt.Errorf("serve: snapshot: line %d: trailer count %d != header count %d (truncated snapshot?)",
			line, tail.Functions, head.Functions)
	}
	if got := fmt.Sprintf("%08x", crc.Sum32()); got != tail.CRC32 {
		return nil, fmt.Errorf("serve: snapshot: payload CRC %s != recorded %s (corrupt snapshot)", got, tail.CRC32)
	}
	if extra, err := br.ReadBytes('\n'); err == nil || len(extra) > 0 {
		return nil, fmt.Errorf("serve: snapshot: line %d: trailing garbage after trailer", line+1)
	}
	return &SnapshotData{
		ModelFingerprint: head.ModelFingerprint,
		Model:            model,
		Functions:        fns,
	}, nil
}

// restoreSnapshot loads path if it exists and rebuilds the predictor whose
// model was serving when the snapshot was written; base is only used for
// its provider binding (the provider is configuration, not snapshot
// state). A missing file returns (nil, nil, nil) — a fresh start.
func restoreSnapshot(path string, base *sizeless.Predictor) (*sizeless.Predictor, []recommender.FunctionSnapshot, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("serve: restore: %w", err)
	}
	defer f.Close()
	snap, err := ReadSnapshot(f)
	if err != nil {
		return nil, nil, fmt.Errorf("restore %s: %w", path, err)
	}
	pred, err := sizeless.LoadPredictor(bytes.NewReader(snap.Model), sizeless.WithProvider(base.Provider()))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: restore %s: model: %w", path, err)
	}
	fp, err := pred.Fingerprint()
	if err != nil {
		return nil, nil, fmt.Errorf("serve: restore %s: %w", path, err)
	}
	if fp != snap.ModelFingerprint {
		return nil, nil, fmt.Errorf("serve: restore %s: model fingerprint %s != recorded %s (corrupt snapshot)",
			path, fp, snap.ModelFingerprint)
	}
	return pred, snap.Functions, nil
}

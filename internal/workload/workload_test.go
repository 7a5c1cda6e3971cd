package workload

import (
	"strings"
	"testing"

	"sizeless/internal/services"
)

func validSpec() *Spec {
	return &Spec{
		Name:       "test-fn",
		Ops:        []Op{CPUOp{Label: "hash", WorkMs: 10, Parallelism: 1}},
		BaseHeapMB: 20,
		CodeMB:     5,
		PayloadKB:  2,
		ResponseKB: 1,
		NoiseCoV:   0.1,
	}
}

func TestSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	tests := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"no ops", func(s *Spec) { s.Ops = nil }},
		{"nil op", func(s *Spec) { s.Ops = []Op{nil} }},
		{"negative heap", func(s *Spec) { s.BaseHeapMB = -1 }},
		{"negative noise", func(s *Spec) { s.NoiseCoV = -0.1 }},
		{"negative cpu work", func(s *Spec) { s.Ops = []Op{CPUOp{WorkMs: -5}} }},
		{"negative alloc", func(s *Spec) { s.Ops = []Op{AllocOp{MB: -1}} }},
		{"negative fread", func(s *Spec) { s.Ops = []Op{FileReadOp{MB: -1}} }},
		{"negative fwrite", func(s *Spec) { s.Ops = []Op{FileWriteOp{MB: -1}} }},
		{"negative sleep", func(s *Spec) { s.Ops = []Op{SleepOp{Ms: -1}} }},
		{"negative service calls", func(s *Spec) {
			s.Ops = []Op{ServiceOp{Service: services.DynamoDB, Calls: -1}}
		}},
		{"unknown service", func(s *Spec) {
			s.Ops = []Op{ServiceOp{Service: services.Kind(99), Calls: 1}}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := validSpec()
			tt.mutate(s)
			if err := s.Validate(); err == nil {
				t.Errorf("expected validation error for %s", tt.name)
			}
		})
	}
}

func TestSpecServicesSortedAndDeduped(t *testing.T) {
	s := validSpec()
	s.Ops = append(s.Ops,
		ServiceOp{Service: services.S3, Op: "GetObject", Calls: 1},
		ServiceOp{Service: services.DynamoDB, Op: "Query", Calls: 2},
		ServiceOp{Service: services.S3, Op: "PutObject", Calls: 1},
	)
	kinds := s.Services()
	if len(kinds) != 2 {
		t.Fatalf("Services() = %v, want 2 kinds", kinds)
	}
	if kinds[0] != services.DynamoDB || kinds[1] != services.S3 {
		t.Errorf("Services() = %v, want sorted [dynamodb s3]", kinds)
	}
}

func TestSpecHashStability(t *testing.T) {
	a := validSpec()
	b := validSpec()
	if a.Hash() != b.Hash() {
		t.Error("identical specs must hash identically")
	}
	// The name must NOT enter the hash: the generator dedups by behaviour.
	b.Name = "other-name"
	if a.Hash() != b.Hash() {
		t.Error("name should not affect the behaviour hash")
	}
	// Any behavioural parameter change must change the hash.
	c := validSpec()
	c.Ops = []Op{CPUOp{Label: "hash", WorkMs: 11, Parallelism: 1}}
	if a.Hash() == c.Hash() {
		t.Error("changed op params should change the hash")
	}
	d := validSpec()
	d.BaseHeapMB = 21
	if a.Hash() == d.Hash() {
		t.Error("changed heap should change the hash")
	}
	// Op order matters (sequential execution).
	e := validSpec()
	e.Ops = []Op{SleepOp{Ms: 1}, CPUOp{Label: "hash", WorkMs: 10, Parallelism: 1}}
	f := validSpec()
	f.Ops = []Op{CPUOp{Label: "hash", WorkMs: 10, Parallelism: 1}, SleepOp{Ms: 1}}
	if e.Hash() == f.Hash() {
		t.Error("op order should affect the hash")
	}
}

func TestSpecHashFormat(t *testing.T) {
	h := validSpec().Hash()
	if len(h) != 64 {
		t.Errorf("hash length = %d, want 64 hex chars", len(h))
	}
	if strings.ToLower(h) != h {
		t.Error("hash should be lowercase hex")
	}
}

func TestOpCanonicalDistinct(t *testing.T) {
	ops := []Op{
		CPUOp{Label: "a", WorkMs: 1, Parallelism: 1},
		AllocOp{MB: 1},
		FileReadOp{MB: 1},
		FileWriteOp{MB: 1},
		ServiceOp{Service: services.S3, Op: "Get", Calls: 1},
		SleepOp{Ms: 1},
	}
	seen := make(map[string]bool)
	for _, op := range ops {
		c := op.canonical()
		if seen[c] {
			t.Errorf("duplicate canonical form %q", c)
		}
		seen[c] = true
	}
}

// Package workload defines the primitive operations a serverless function
// performs and the Spec type that composes them into a function. Specs are
// the common currency between the synthetic function generator (paper
// §3.1), the case-study applications (paper §4), and the runtime that
// executes them at a given memory size.
//
// An op describes *work*, not time: how much CPU, how many bytes of I/O,
// which service calls. The runtime converts work into time using the
// platform's memory-dependent resource model, which is exactly the
// mechanism Sizeless learns to invert.
package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"

	"sizeless/internal/services"
)

// Op is a primitive operation. The set of implementations is closed; the
// runtime switches over them.
type Op interface {
	// canonical returns a stable textual encoding used for spec hashing.
	canonical() string
	// validate reports parameter errors.
	validate() error
}

// CPUOp is synchronous compute on the JavaScript thread (or the libuv
// threadpool when Parallelism > 1, as for crypto/zlib).
type CPUOp struct {
	// Label names the op for diagnostics (e.g. "invertMatrix").
	Label string
	// WorkMs is the CPU work in milliseconds at one full vCPU.
	WorkMs float64
	// Parallelism is the maximum number of threads the op can exploit
	// (1 for plain JavaScript; up to 4 for libuv threadpool work).
	Parallelism float64
	// TransientAllocMB is scratch memory allocated and released by the op;
	// it churns the heap and contributes GC pressure.
	TransientAllocMB float64
}

func (o CPUOp) canonical() string {
	return fmt.Sprintf("cpu(%s,w=%.4f,p=%.2f,a=%.3f)", o.Label, o.WorkMs, o.Parallelism, o.TransientAllocMB)
}

func (o CPUOp) validate() error {
	if o.WorkMs < 0 || o.Parallelism < 0 || o.TransientAllocMB < 0 {
		return fmt.Errorf("workload: negative parameter in %s", o.canonical())
	}
	return nil
}

// AllocOp grows the function's persistent working set (data kept live for
// the remainder of the invocation).
type AllocOp struct {
	MB float64
}

func (o AllocOp) canonical() string { return fmt.Sprintf("alloc(%.3f)", o.MB) }

func (o AllocOp) validate() error {
	if o.MB < 0 {
		return errors.New("workload: negative alloc")
	}
	return nil
}

// FileReadOp reads from the instance's /tmp file system.
type FileReadOp struct {
	MB float64
}

func (o FileReadOp) canonical() string { return fmt.Sprintf("fread(%.3f)", o.MB) }

func (o FileReadOp) validate() error {
	if o.MB < 0 {
		return errors.New("workload: negative file read")
	}
	return nil
}

// FileWriteOp writes to the instance's /tmp file system.
type FileWriteOp struct {
	MB float64
}

func (o FileWriteOp) canonical() string { return fmt.Sprintf("fwrite(%.3f)", o.MB) }

func (o FileWriteOp) validate() error {
	if o.MB < 0 {
		return errors.New("workload: negative file write")
	}
	return nil
}

// ServiceOp performs sequential calls against a managed service.
type ServiceOp struct {
	Service services.Kind
	// Op names the API operation (e.g. "Query", "PutObject") — purely
	// informational.
	Op string
	// Calls is the number of sequential round trips.
	Calls int
	// RequestKB / ResponseKB are the payload sizes per call.
	RequestKB  float64
	ResponseKB float64
}

func (o ServiceOp) canonical() string {
	return fmt.Sprintf("svc(%v.%s,n=%d,req=%.3f,resp=%.3f)", o.Service, o.Op, o.Calls, o.RequestKB, o.ResponseKB)
}

func (o ServiceOp) validate() error {
	if o.Calls < 0 || o.RequestKB < 0 || o.ResponseKB < 0 {
		return fmt.Errorf("workload: negative parameter in %s", o.canonical())
	}
	if o.Service.String() == fmt.Sprintf("service(%d)", int(o.Service)) {
		return fmt.Errorf("workload: unknown service %d", int(o.Service))
	}
	return nil
}

// SleepOp waits on the event loop without consuming CPU (timers, external
// waits that are not service calls).
type SleepOp struct {
	Ms float64
}

func (o SleepOp) canonical() string { return fmt.Sprintf("sleep(%.3f)", o.Ms) }

func (o SleepOp) validate() error {
	if o.Ms < 0 {
		return errors.New("workload: negative sleep")
	}
	return nil
}

// Spec is a complete function description.
type Spec struct {
	// Name identifies the function (unique within an experiment).
	Name string
	// SegmentNames records which generator segments compose the function
	// (informational; empty for hand-written case-study functions).
	SegmentNames []string
	// Ops is the operation sequence executed per invocation.
	Ops []Op
	// BaseHeapMB is the resident working set of code + libraries.
	BaseHeapMB float64
	// CodeMB is the deployment-package size, which drives cold-start module
	// loading and the bytecodeMetadata metric.
	CodeMB float64
	// PayloadKB / ResponseKB are the invocation event and response sizes.
	PayloadKB  float64
	ResponseKB float64
	// NoiseCoV is the per-phase multiplicative noise level (lognormal CoV).
	NoiseCoV float64
}

// Validate checks the spec for invalid parameters.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return errors.New("workload: spec needs a name")
	}
	if s.BaseHeapMB < 0 || s.CodeMB < 0 || s.PayloadKB < 0 || s.ResponseKB < 0 || s.NoiseCoV < 0 {
		return fmt.Errorf("workload: negative scalar parameter in spec %q", s.Name)
	}
	if len(s.Ops) == 0 {
		return fmt.Errorf("workload: spec %q has no ops", s.Name)
	}
	for i, op := range s.Ops {
		if op == nil {
			return fmt.Errorf("workload: spec %q has nil op at %d", s.Name, i)
		}
		if err := op.validate(); err != nil {
			return fmt.Errorf("spec %q op %d: %w", s.Name, i, err)
		}
	}
	return nil
}

// Services returns the distinct managed services the spec calls, sorted.
func (s *Spec) Services() []services.Kind {
	seen := make(map[services.Kind]bool)
	for _, op := range s.Ops {
		if svc, ok := op.(ServiceOp); ok {
			seen[svc.Service] = true
		}
	}
	kinds := make([]services.Kind, 0, len(seen))
	for k := range seen {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

// Hash returns a stable content hash of the spec's behaviour-relevant
// fields. The generator uses it to guarantee no function is generated twice
// (paper §3.1).
func (s *Spec) Hash() string {
	var b strings.Builder
	fmt.Fprintf(&b, "heap=%.3f;code=%.3f;payload=%.3f;resp=%.3f;noise=%.4f;",
		s.BaseHeapMB, s.CodeMB, s.PayloadKB, s.ResponseKB, s.NoiseCoV)
	for _, op := range s.Ops {
		b.WriteString(op.canonical())
		b.WriteByte(';')
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// Interface compliance checks.
var (
	_ Op = CPUOp{}
	_ Op = AllocOp{}
	_ Op = FileReadOp{}
	_ Op = FileWriteOp{}
	_ Op = ServiceOp{}
	_ Op = SleepOp{}
)

// Package segments implements the sixteen representative function segments
// the synthetic function generator combines (paper §3.1). Each segment is
// "the smallest granularity of a common task in serverless functions":
// CPU-intensive computation, image manipulation, format conversion, data
// compression, file interaction, and calls to external services such as
// DynamoDB or S3.
//
// A segment provides its own inputs (sizes drawn at generation time, the
// analogue of the bundled sample images in the paper) and declares the
// external services it needs so the generator can emit setup/teardown
// scripts for them.
package segments

import (
	"sizeless/internal/services"
	"sizeless/internal/workload"
	"sizeless/internal/xrand"
)

// Fragment is a segment instantiation: ops plus resource-footprint
// contributions to the enclosing function.
type Fragment struct {
	Ops    []workload.Op
	HeapMB float64
	CodeMB float64
}

// Segment describes one catalog entry.
type Segment struct {
	// Name is the unique segment identifier.
	Name string
	// Description documents what the segment models.
	Description string
	// Services lists managed services the segment requires.
	Services []services.Kind
	// Build draws randomized parameters from rng and returns the ops.
	Build func(rng *xrand.Stream) Fragment
}

// Catalog returns the sixteen segments in stable order.
func Catalog() []Segment {
	return []Segment{
		{
			Name:        "matrixMultiply",
			Description: "Creates and multiplies random dense matrices (CPU-intensive, memory-churning).",
			Build: func(rng *xrand.Stream) Fragment {
				work := rng.Uniform(30, 900)
				alloc := rng.Uniform(8, 48)
				return Fragment{
					Ops: []workload.Op{workload.CPUOp{
						Label: "matrixMultiply", WorkMs: work, Parallelism: 1, TransientAllocMB: alloc,
					}},
					HeapMB: alloc * 0.3,
					CodeMB: 0.3,
				}
			},
		},
		{
			Name:        "primeNumbers",
			Description: "Computes prime numbers by trial division (pure CPU, negligible allocation).",
			Build: func(rng *xrand.Stream) Fragment {
				work := rng.Uniform(40, 1600)
				return Fragment{
					Ops:    []workload.Op{workload.CPUOp{Label: "primeNumbers", WorkMs: work, Parallelism: 1, TransientAllocMB: 1}},
					CodeMB: 0.1,
				}
			},
		},
		{
			Name:        "hashEncrypt",
			Description: "SHA-256 hashing and AES encryption of generated buffers (libuv threadpool crypto).",
			Build: func(rng *xrand.Stream) Fragment {
				work := rng.Uniform(10, 450)
				return Fragment{
					Ops: []workload.Op{workload.CPUOp{
						Label: "hashEncrypt", WorkMs: work, Parallelism: 2, TransientAllocMB: rng.Uniform(1, 12),
					}},
					CodeMB: 0.2,
				}
			},
		},
		{
			Name:        "compressGzip",
			Description: "Gzip compression of a bundled corpus (zlib on the threadpool).",
			Build: func(rng *xrand.Stream) Fragment {
				work := rng.Uniform(15, 550)
				alloc := rng.Uniform(6, 32)
				return Fragment{
					Ops: []workload.Op{workload.CPUOp{
						Label: "compressGzip", WorkMs: work, Parallelism: 2, TransientAllocMB: alloc,
					}},
					HeapMB: alloc * 0.2,
					CodeMB: 0.3,
				}
			},
		},
		{
			Name:        "imageResize",
			Description: "Resizes bundled sample images (reads input from the package, CPU-heavy pixel work).",
			Build: func(rng *xrand.Stream) Fragment {
				inputMB := rng.Uniform(0.5, 6)
				work := rng.Uniform(25, 420)
				alloc := rng.Uniform(12, 64)
				return Fragment{
					Ops: []workload.Op{
						workload.FileReadOp{MB: inputMB},
						workload.CPUOp{Label: "imageResize", WorkMs: work, Parallelism: 1, TransientAllocMB: alloc},
					},
					HeapMB: 6,
					CodeMB: 2.5 + inputMB, // bundled sample images
				}
			},
		},
		{
			Name:        "apiCall",
			Description: "Calls an external HTTP API and parses the response (memory-independent wait; endpoint processing time varies widely between generated functions).",
			Services:    []services.Kind{services.ExternalAPI},
			Build: func(rng *xrand.Stream) Fragment {
				calls := rng.UniformInt(1, 3)
				resp := rng.Uniform(1, 256)
				// Slow endpoints add a server-side wait on top of the base
				// API latency — this spreads generated functions across the
				// full "memory-independent fraction" spectrum.
				serverMs := rng.Uniform(0, 400)
				ops := make([]workload.Op, 0, 2*calls+1)
				for c := 0; c < calls; c++ {
					ops = append(ops,
						workload.ServiceOp{Service: services.ExternalAPI, Op: "GET", Calls: 1, RequestKB: 1, ResponseKB: resp},
						workload.SleepOp{Ms: serverMs},
					)
				}
				ops = append(ops, workload.CPUOp{
					Label: "parseResponse", WorkMs: rng.Uniform(1, 20), Parallelism: 1, TransientAllocMB: rng.Uniform(1, 8),
				})
				return Fragment{
					Ops:    ops,
					HeapMB: 4,
					CodeMB: 0.5,
				}
			},
		},
		{
			Name:        "jsonToCsv",
			Description: "Parses a bundled JSON document set and renders CSV (format conversion).",
			Build: func(rng *xrand.Stream) Fragment {
				work := rng.Uniform(6, 220)
				return Fragment{
					Ops: []workload.Op{workload.CPUOp{
						Label: "jsonToCsv", WorkMs: work, Parallelism: 1, TransientAllocMB: rng.Uniform(2, 24),
					}},
					HeapMB: 2,
					CodeMB: 0.4,
				}
			},
		},
		{
			Name:        "xmlToJson",
			Description: "Parses bundled XML documents and emits JSON (format conversion).",
			Build: func(rng *xrand.Stream) Fragment {
				work := rng.Uniform(8, 300)
				return Fragment{
					Ops: []workload.Op{workload.CPUOp{
						Label: "xmlToJson", WorkMs: work, Parallelism: 1, TransientAllocMB: rng.Uniform(2, 18),
					}},
					HeapMB: 2,
					CodeMB: 0.5,
				}
			},
		},
		{
			Name:        "base64Encode",
			Description: "Base64 encodes and decodes generated buffers.",
			Build: func(rng *xrand.Stream) Fragment {
				work := rng.Uniform(8, 120)
				return Fragment{
					Ops: []workload.Op{workload.CPUOp{
						Label: "base64Encode", WorkMs: work, Parallelism: 1, TransientAllocMB: rng.Uniform(1, 10),
					}},
					CodeMB: 0.1,
				}
			},
		},
		{
			Name:        "regexExtract",
			Description: "Runs extraction regexes over a bundled text corpus.",
			Build: func(rng *xrand.Stream) Fragment {
				work := rng.Uniform(5, 350)
				return Fragment{
					Ops: []workload.Op{workload.CPUOp{
						Label: "regexExtract", WorkMs: work, Parallelism: 1, TransientAllocMB: rng.Uniform(1, 8),
					}},
					HeapMB: 3,
					CodeMB: 0.6,
				}
			},
		},
		{
			Name:        "fileWrite",
			Description: "Writes generated data to the instance's /tmp file system.",
			Build: func(rng *xrand.Stream) Fragment {
				mb := rng.Uniform(1, 32)
				return Fragment{
					Ops: []workload.Op{
						workload.CPUOp{Label: "prepareBuffer", WorkMs: mb * 0.4, Parallelism: 1, TransientAllocMB: mb},
						workload.FileWriteOp{MB: mb},
					},
					CodeMB: 0.1,
				}
			},
		},
		{
			Name:        "fileRead",
			Description: "Reads bundled data files from /tmp and checksums them.",
			Build: func(rng *xrand.Stream) Fragment {
				mb := rng.Uniform(1, 32)
				return Fragment{
					Ops: []workload.Op{
						workload.FileReadOp{MB: mb},
						workload.CPUOp{Label: "checksum", WorkMs: mb * 0.3, Parallelism: 1, TransientAllocMB: mb * 0.5},
					},
					CodeMB: 0.1 + mb*0.5, // bundled input files
				}
			},
		},
		{
			Name:        "dynamoQuery",
			Description: "Queries a DynamoDB table seeded by the segment's setup script.",
			Services:    []services.Kind{services.DynamoDB},
			Build: func(rng *xrand.Stream) Fragment {
				calls := rng.UniformInt(1, 8)
				resp := rng.Uniform(1, 64)
				return Fragment{
					Ops: []workload.Op{workload.ServiceOp{
						Service: services.DynamoDB, Op: "Query", Calls: calls, RequestKB: 1, ResponseKB: resp,
					}},
					HeapMB: 8, // AWS SDK client
					CodeMB: 1.2,
				}
			},
		},
		{
			Name:        "dynamoPut",
			Description: "Writes items to a DynamoDB table.",
			Services:    []services.Kind{services.DynamoDB},
			Build: func(rng *xrand.Stream) Fragment {
				calls := rng.UniformInt(1, 8)
				req := rng.Uniform(1, 32)
				return Fragment{
					Ops: []workload.Op{workload.ServiceOp{
						Service: services.DynamoDB, Op: "PutItem", Calls: calls, RequestKB: req, ResponseKB: 0.5,
					}},
					HeapMB: 8,
					CodeMB: 1.2,
				}
			},
		},
		{
			Name:        "s3Download",
			Description: "Downloads objects from an S3 bucket seeded by the setup script.",
			Services:    []services.Kind{services.S3},
			Build: func(rng *xrand.Stream) Fragment {
				calls := rng.UniformInt(1, 3)
				resp := rng.Uniform(16, 4096)
				return Fragment{
					Ops: []workload.Op{workload.ServiceOp{
						Service: services.S3, Op: "GetObject", Calls: calls, RequestKB: 0.5, ResponseKB: resp,
					}},
					HeapMB: 9,
					CodeMB: 1.3,
				}
			},
		},
		{
			Name:        "s3Upload",
			Description: "Uploads generated objects to an S3 bucket.",
			Services:    []services.Kind{services.S3},
			Build: func(rng *xrand.Stream) Fragment {
				calls := rng.UniformInt(1, 3)
				req := rng.Uniform(16, 4096)
				return Fragment{
					Ops: []workload.Op{
						workload.CPUOp{Label: "prepareObject", WorkMs: req / 1024 * 4, Parallelism: 1, TransientAllocMB: req / 1024},
						workload.ServiceOp{Service: services.S3, Op: "PutObject", Calls: calls, RequestKB: req, ResponseKB: 0.5},
					},
					HeapMB: 9,
					CodeMB: 1.3,
				}
			},
		},
	}
}

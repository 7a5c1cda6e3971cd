// Package apps defines the four case-study applications of paper §4 as
// workload specs: Airline Booking (8 functions), Facial Recognition (5),
// Event Processing (7), and Hello Retail (7) — 27 serverless functions in
// total.
//
// These are deliberately NOT compositions of the generator's segments: the
// paper's point is that a model trained on synthetic functions transfers to
// real applications, several of which use services absent from the training
// segments (Rekognition, Aurora, Kinesis, SQS, Step Functions). Each app
// also records the workload the paper drives it with and the measurement
// campaign's distance from the training dataset (modelled as platform
// drift).
package apps

import (
	"fmt"
	"time"

	"sizeless/internal/dag"
	"sizeless/internal/platform"
	"sizeless/internal/services"
	"sizeless/internal/workload"
)

// App is one case-study application.
type App struct {
	// Name identifies the application.
	Name string
	// Functions are the application's serverless functions.
	Functions []*workload.Spec
	// Edges are the invocation edges between the functions — the
	// application's DAG structure, consumed by Graph and the
	// application-level planner in internal/dag. Functions absent from
	// every edge are standalone entry points.
	Edges []dag.Edge
	// Rate and Duration describe the paper's measurement workload (§4).
	Rate     float64
	Duration time.Duration
	// Drift is the platform performance drift at measurement time relative
	// to the training dataset (the campaigns ran 2–9 months later).
	Drift float64
	// MeasuredAfter documents the gap to the training dataset.
	MeasuredAfter string
}

// Graph assembles the app's dag.Graph from per-function execution times
// (memory size → mean milliseconds, predicted or measured). Every function
// must have a times entry.
func (a App) Graph(times map[string]map[platform.MemorySize]float64) (*dag.Graph, error) {
	g := dag.New(a.Name)
	for _, f := range a.Functions {
		t, ok := times[f.Name]
		if !ok {
			return nil, fmt.Errorf("apps: %s: no times for function %q", a.Name, f.Name)
		}
		if err := g.Add(f, t); err != nil {
			return nil, err
		}
	}
	for _, e := range a.Edges {
		if err := g.Connect(e); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// All returns the four case-study applications in paper order.
func All() []App {
	return []App{AirlineBooking(), FacialRecognition(), EventProcessing(), HelloRetail()}
}

// AirlineBooking is the AWS Build On Serverless flight-booking app: eight
// functions over S3, SNS, Step Functions, API Gateway, and an external
// payment provider. Measured October 2020 (two months after training).
func AirlineBooking() App {
	return App{
		Name:          "airline-booking",
		Rate:          200,
		Duration:      10 * time.Minute,
		Drift:         1.02,
		MeasuredAfter: "2 months",
		Functions: []*workload.Spec{
			{
				Name: "IngestLoyalty",
				Ops: []workload.Op{
					workload.CPUOp{Label: "parseLoyaltyEvent", WorkMs: 6, Parallelism: 1, TransientAllocMB: 4},
					workload.ServiceOp{Service: services.SNS, Op: "Receive", Calls: 1, RequestKB: 2, ResponseKB: 4},
					workload.ServiceOp{Service: services.S3, Op: "PutObject", Calls: 1, RequestKB: 12, ResponseKB: 0.5},
				},
				BaseHeapMB: 28, CodeMB: 3.2, PayloadKB: 4, ResponseKB: 1, NoiseCoV: 0.12,
			},
			{
				Name: "CaptureCharge",
				Ops: []workload.Op{
					workload.CPUOp{Label: "buildCaptureRequest", WorkMs: 9, Parallelism: 1, TransientAllocMB: 5},
					workload.ServiceOp{Service: services.ExternalAPI, Op: "POST /capture", Calls: 1, RequestKB: 3, ResponseKB: 2},
				},
				BaseHeapMB: 30, CodeMB: 4.0, PayloadKB: 3, ResponseKB: 2, NoiseCoV: 0.14,
			},
			{
				Name: "CreateCharge",
				Ops: []workload.Op{
					workload.CPUOp{Label: "tokenizeCard", WorkMs: 12, Parallelism: 1, TransientAllocMB: 6},
					workload.ServiceOp{Service: services.ExternalAPI, Op: "POST /charge", Calls: 1, RequestKB: 4, ResponseKB: 3},
				},
				BaseHeapMB: 30, CodeMB: 4.0, PayloadKB: 4, ResponseKB: 2, NoiseCoV: 0.14,
			},
			{
				Name: "CollectPayment",
				Ops: []workload.Op{
					workload.CPUOp{Label: "orchestratePayment", WorkMs: 10, Parallelism: 1, TransientAllocMB: 5},
					workload.ServiceOp{Service: services.ExternalAPI, Op: "POST /collect", Calls: 2, RequestKB: 3, ResponseKB: 2},
					workload.ServiceOp{Service: services.StepFunctions, Op: "SendTaskSuccess", Calls: 1, RequestKB: 1, ResponseKB: 0.5},
				},
				BaseHeapMB: 32, CodeMB: 4.5, PayloadKB: 4, ResponseKB: 2, NoiseCoV: 0.16,
			},
			{
				Name: "ConfirmBooking",
				Ops: []workload.Op{
					workload.CPUOp{Label: "validateBooking", WorkMs: 14, Parallelism: 1, TransientAllocMB: 8},
					workload.ServiceOp{Service: services.S3, Op: "PutObject", Calls: 1, RequestKB: 18, ResponseKB: 0.5},
					workload.ServiceOp{Service: services.StepFunctions, Op: "SendTaskSuccess", Calls: 1, RequestKB: 1, ResponseKB: 0.5},
				},
				BaseHeapMB: 30, CodeMB: 3.8, PayloadKB: 6, ResponseKB: 2, NoiseCoV: 0.12,
			},
			{
				Name: "GetLoyalty",
				Ops: []workload.Op{
					workload.ServiceOp{Service: services.S3, Op: "GetObject", Calls: 1, RequestKB: 0.5, ResponseKB: 24},
					workload.CPUOp{Label: "aggregatePoints", WorkMs: 11, Parallelism: 1, TransientAllocMB: 10},
				},
				BaseHeapMB: 28, CodeMB: 3.2, PayloadKB: 2, ResponseKB: 6, NoiseCoV: 0.13,
			},
			{
				Name: "NotifyBooking",
				Ops: []workload.Op{
					workload.CPUOp{Label: "renderNotification", WorkMs: 7, Parallelism: 1, TransientAllocMB: 3},
					workload.ServiceOp{Service: services.SNS, Op: "Publish", Calls: 1, RequestKB: 2, ResponseKB: 0.5},
				},
				BaseHeapMB: 26, CodeMB: 3.0, PayloadKB: 2, ResponseKB: 1, NoiseCoV: 0.11,
			},
			{
				Name: "ReserveBooking",
				Ops: []workload.Op{
					workload.CPUOp{Label: "allocateSeats", WorkMs: 16, Parallelism: 1, TransientAllocMB: 9},
					workload.ServiceOp{Service: services.S3, Op: "PutObject", Calls: 1, RequestKB: 10, ResponseKB: 0.5},
				},
				BaseHeapMB: 30, CodeMB: 3.6, PayloadKB: 5, ResponseKB: 2, NoiseCoV: 0.12,
			},
		},
		// The booking state machine: ReserveBooking starts the Step
		// Functions flow, CollectPayment orchestrates the payment provider
		// (charge creation/capture as nested synchronous calls), and the
		// confirmed booking fans into the async notification → loyalty
		// pipeline over SNS. GetLoyalty is the standalone read API.
		Edges: []dag.Edge{
			{From: "ReserveBooking", To: "CollectPayment", Trigger: dag.TriggerSync},
			{From: "CollectPayment", To: "CreateCharge", Trigger: dag.TriggerSync},
			{From: "CreateCharge", To: "CaptureCharge", Trigger: dag.TriggerSync},
			{From: "CollectPayment", To: "ConfirmBooking", Trigger: dag.TriggerSync},
			{From: "ConfirmBooking", To: "NotifyBooking", Trigger: dag.TriggerQueue},
			{From: "NotifyBooking", To: "IngestLoyalty", Trigger: dag.TriggerQueue},
		},
	}
}

// FacialRecognition is the AWS Wild Rydes workshop app: five functions
// (the no-op notification function is removed, as in the paper), making
// heavy use of Rekognition — a service absent from the training segments.
// Measured December 2020 (four months after training).
func FacialRecognition() App {
	return App{
		Name:          "facial-recognition",
		Rate:          10,
		Duration:      5 * time.Minute,
		Drift:         1.04,
		MeasuredAfter: "4 months",
		Functions: []*workload.Spec{
			{
				Name: "FaceDetection",
				Ops: []workload.Op{
					workload.ServiceOp{Service: services.S3, Op: "GetObject", Calls: 1, RequestKB: 0.5, ResponseKB: 420},
					workload.ServiceOp{Service: services.Rekognition, Op: "DetectFaces", Calls: 1, RequestKB: 420, ResponseKB: 6},
					workload.CPUOp{Label: "evaluateDetection", WorkMs: 5, Parallelism: 1, TransientAllocMB: 6},
				},
				BaseHeapMB: 34, CodeMB: 5.0, PayloadKB: 2, ResponseKB: 1, NoiseCoV: 0.15,
			},
			{
				Name: "FaceSearch",
				Ops: []workload.Op{
					workload.CPUOp{Label: "buildSearchRequest", WorkMs: 8, Parallelism: 1, TransientAllocMB: 5},
					workload.ServiceOp{Service: services.Rekognition, Op: "SearchFacesByImage", Calls: 1, RequestKB: 60, ResponseKB: 4},
				},
				BaseHeapMB: 32, CodeMB: 4.6, PayloadKB: 2, ResponseKB: 1, NoiseCoV: 0.15,
			},
			{
				Name: "IndexFace",
				Ops: []workload.Op{
					workload.ServiceOp{Service: services.Rekognition, Op: "IndexFaces", Calls: 1, RequestKB: 60, ResponseKB: 3},
					workload.CPUOp{Label: "recordFaceId", WorkMs: 6, Parallelism: 1, TransientAllocMB: 4},
				},
				BaseHeapMB: 32, CodeMB: 4.6, PayloadKB: 2, ResponseKB: 1, NoiseCoV: 0.15,
			},
			{
				Name: "PersistMetadata",
				Ops: []workload.Op{
					workload.CPUOp{Label: "shapeMetadata", WorkMs: 5, Parallelism: 1, TransientAllocMB: 3},
					workload.ServiceOp{Service: services.DynamoDB, Op: "PutItem", Calls: 1, RequestKB: 3, ResponseKB: 0.5},
				},
				BaseHeapMB: 28, CodeMB: 3.4, PayloadKB: 3, ResponseKB: 1, NoiseCoV: 0.12,
			},
			{
				Name: "CreateThumbnail",
				Ops: []workload.Op{
					workload.ServiceOp{Service: services.S3, Op: "GetObject", Calls: 1, RequestKB: 0.5, ResponseKB: 420},
					workload.CPUOp{Label: "resizeImage", WorkMs: 55, Parallelism: 1, TransientAllocMB: 46},
					workload.ServiceOp{Service: services.S3, Op: "PutObject", Calls: 1, RequestKB: 48, ResponseKB: 0.5},
				},
				BaseHeapMB: 36, CodeMB: 6.0, PayloadKB: 2, ResponseKB: 1, NoiseCoV: 0.14,
			},
		},
		// The indexing state machine: detection gates the search → index →
		// persist chain and forks the thumbnail render off the same photo.
		Edges: []dag.Edge{
			{From: "FaceDetection", To: "FaceSearch", Trigger: dag.TriggerSync},
			{From: "FaceSearch", To: "IndexFace", Trigger: dag.TriggerSync},
			{From: "IndexFace", To: "PersistMetadata", Trigger: dag.TriggerSync},
			{From: "FaceDetection", To: "CreateThumbnail", Trigger: dag.TriggerSync},
		},
	}
}

// EventProcessing is the IoT event-processing system from the serverless
// migration study [51]: seven fast functions over API Gateway, SNS, SQS,
// and Aurora — none of which appear in the training segments. Measured
// December 2020 (four months after training).
func EventProcessing() App {
	return App{
		Name:          "event-processing",
		Rate:          10,
		Duration:      10 * time.Minute,
		Drift:         1.04,
		MeasuredAfter: "4 months",
		Functions: []*workload.Spec{
			{
				Name: "EventInserter",
				Ops: []workload.Op{
					workload.CPUOp{Label: "normalizeEvent", WorkMs: 2.5, Parallelism: 1, TransientAllocMB: 2},
					workload.ServiceOp{Service: services.Aurora, Op: "INSERT", Calls: 2, RequestKB: 2, ResponseKB: 0.5},
				},
				BaseHeapMB: 26, CodeMB: 2.8, PayloadKB: 2, ResponseKB: 0.5, NoiseCoV: 0.13,
			},
			{
				Name: "FormatForecast",
				Ops: []workload.Op{
					workload.CPUOp{Label: "formatForecast", WorkMs: 3.5, Parallelism: 1, TransientAllocMB: 2},
					workload.ServiceOp{Service: services.SQS, Op: "SendMessage", Calls: 1, RequestKB: 2, ResponseKB: 0.5},
				},
				BaseHeapMB: 24, CodeMB: 2.4, PayloadKB: 2, ResponseKB: 1, NoiseCoV: 0.12,
			},
			{
				Name: "FormatState",
				Ops: []workload.Op{
					workload.CPUOp{Label: "formatState", WorkMs: 3, Parallelism: 1, TransientAllocMB: 2},
					workload.ServiceOp{Service: services.SQS, Op: "SendMessage", Calls: 1, RequestKB: 2, ResponseKB: 0.5},
				},
				BaseHeapMB: 24, CodeMB: 2.4, PayloadKB: 2, ResponseKB: 1, NoiseCoV: 0.12,
			},
			{
				Name: "FormatTemp",
				Ops: []workload.Op{
					workload.CPUOp{Label: "formatTemperature", WorkMs: 2.8, Parallelism: 1, TransientAllocMB: 2},
					workload.ServiceOp{Service: services.SQS, Op: "SendMessage", Calls: 1, RequestKB: 2, ResponseKB: 0.5},
				},
				BaseHeapMB: 24, CodeMB: 2.4, PayloadKB: 2, ResponseKB: 1, NoiseCoV: 0.12,
			},
			{
				Name: "GetLatestEvents",
				Ops: []workload.Op{
					workload.ServiceOp{Service: services.Aurora, Op: "SELECT latest", Calls: 1, RequestKB: 1, ResponseKB: 36},
					workload.CPUOp{Label: "serializeEvents", WorkMs: 6, Parallelism: 1, TransientAllocMB: 8},
				},
				BaseHeapMB: 26, CodeMB: 2.8, PayloadKB: 1, ResponseKB: 18, NoiseCoV: 0.16,
			},
			{
				Name: "ListAllEvents",
				Ops: []workload.Op{
					workload.ServiceOp{Service: services.Aurora, Op: "SELECT *", Calls: 1, RequestKB: 1, ResponseKB: 180},
					workload.CPUOp{Label: "serializeAll", WorkMs: 14, Parallelism: 1, TransientAllocMB: 22},
				},
				BaseHeapMB: 30, CodeMB: 2.8, PayloadKB: 1, ResponseKB: 64, NoiseCoV: 0.18,
			},
			{
				Name: "IngestEvent",
				Ops: []workload.Op{
					workload.CPUOp{Label: "validateEvent", WorkMs: 4, Parallelism: 1, TransientAllocMB: 3},
					workload.ServiceOp{Service: services.SNS, Op: "Publish", Calls: 1, RequestKB: 2, ResponseKB: 0.5},
				},
				BaseHeapMB: 26, CodeMB: 2.6, PayloadKB: 3, ResponseKB: 1, NoiseCoV: 0.12,
			},
		},
		// The ingest pipeline: IngestEvent publishes to SNS, the three
		// formatters consume it in parallel and feed EventInserter over
		// SQS (a fan-out/fan-in diamond — no fusable chain anywhere).
		// GetLatestEvents and ListAllEvents are standalone read APIs.
		Edges: []dag.Edge{
			{From: "IngestEvent", To: "FormatTemp", Trigger: dag.TriggerQueue},
			{From: "IngestEvent", To: "FormatState", Trigger: dag.TriggerQueue},
			{From: "IngestEvent", To: "FormatForecast", Trigger: dag.TriggerQueue},
			{From: "FormatTemp", To: "EventInserter", Trigger: dag.TriggerQueue},
			{From: "FormatState", To: "EventInserter", Trigger: dag.TriggerQueue},
			{From: "FormatForecast", To: "EventInserter", Trigger: dag.TriggerQueue},
		},
	}
}

// HelloRetail is Nordstrom's event-sourced product-catalog application:
// seven functions over Kinesis, API Gateway, Step Functions, DynamoDB, and
// S3. Measured May 2021 (nine months after training) — the longevity probe.
func HelloRetail() App {
	return App{
		Name:          "hello-retail",
		Rate:          10,
		Duration:      10 * time.Minute,
		Drift:         1.08,
		MeasuredAfter: "9 months",
		Functions: []*workload.Spec{
			{
				Name: "EventWriter",
				Ops: []workload.Op{
					workload.CPUOp{Label: "stampEvent", WorkMs: 7, Parallelism: 1, TransientAllocMB: 4},
					workload.ServiceOp{Service: services.Kinesis, Op: "PutRecord", Calls: 1, RequestKB: 4, ResponseKB: 0.5},
				},
				BaseHeapMB: 28, CodeMB: 3.4, PayloadKB: 4, ResponseKB: 1, NoiseCoV: 0.12,
			},
			{
				Name: "PhotoAssign",
				Ops: []workload.Op{
					workload.CPUOp{Label: "choosePhotographer", WorkMs: 3, Parallelism: 1, TransientAllocMB: 2},
					workload.ServiceOp{Service: services.DynamoDB, Op: "UpdateItem", Calls: 1, RequestKB: 2, ResponseKB: 1},
					workload.ServiceOp{Service: services.SNS, Op: "Publish", Calls: 1, RequestKB: 1, ResponseKB: 0.5},
				},
				BaseHeapMB: 28, CodeMB: 3.2, PayloadKB: 2, ResponseKB: 1, NoiseCoV: 0.12,
			},
			{
				Name: "PhotoProcessor",
				Ops: []workload.Op{
					workload.ServiceOp{Service: services.S3, Op: "GetObject", Calls: 1, RequestKB: 0.5, ResponseKB: 900},
					workload.CPUOp{Label: "processPhoto", WorkMs: 70, Parallelism: 1, TransientAllocMB: 60},
					workload.ServiceOp{Service: services.S3, Op: "PutObject", Calls: 1, RequestKB: 120, ResponseKB: 0.5},
				},
				BaseHeapMB: 38, CodeMB: 6.5, PayloadKB: 2, ResponseKB: 1, NoiseCoV: 0.16,
			},
			{
				Name: "PhotoReceive",
				Ops: []workload.Op{
					workload.CPUOp{Label: "validateUpload", WorkMs: 5, Parallelism: 1, TransientAllocMB: 4},
					workload.ServiceOp{Service: services.S3, Op: "PutObject", Calls: 1, RequestKB: 220, ResponseKB: 0.5},
					workload.ServiceOp{Service: services.StepFunctions, Op: "SendTaskSuccess", Calls: 1, RequestKB: 1, ResponseKB: 0.5},
				},
				BaseHeapMB: 30, CodeMB: 3.8, PayloadKB: 8, ResponseKB: 1, NoiseCoV: 0.14,
			},
			{
				Name: "PhotoReport",
				Ops: []workload.Op{
					workload.ServiceOp{Service: services.DynamoDB, Op: "Query", Calls: 1, RequestKB: 1, ResponseKB: 12},
					workload.CPUOp{Label: "renderReport", WorkMs: 9, Parallelism: 1, TransientAllocMB: 6},
				},
				BaseHeapMB: 28, CodeMB: 3.2, PayloadKB: 2, ResponseKB: 4, NoiseCoV: 0.13,
			},
			{
				Name: "ProductCatalogApi",
				Ops: []workload.Op{
					workload.ServiceOp{Service: services.DynamoDB, Op: "Query", Calls: 2, RequestKB: 1, ResponseKB: 16},
					workload.CPUOp{Label: "shapeResponse", WorkMs: 8, Parallelism: 1, TransientAllocMB: 6},
				},
				BaseHeapMB: 30, CodeMB: 3.6, PayloadKB: 2, ResponseKB: 8, NoiseCoV: 0.13,
			},
			{
				Name: "ProductCatalogBuilder",
				Ops: []workload.Op{
					workload.ServiceOp{Service: services.Kinesis, Op: "GetRecords", Calls: 1, RequestKB: 1, ResponseKB: 24},
					workload.CPUOp{Label: "buildCatalogEntries", WorkMs: 12, Parallelism: 1, TransientAllocMB: 9},
					workload.ServiceOp{Service: services.DynamoDB, Op: "BatchWriteItem", Calls: 1, RequestKB: 18, ResponseKB: 1},
				},
				BaseHeapMB: 32, CodeMB: 3.8, PayloadKB: 2, ResponseKB: 1, NoiseCoV: 0.14,
			},
		},
		// The photo-registration state machine is a pure synchronous chain
		// (assign → receive → process → report); the event-sourced catalog
		// side rides Kinesis, whose stream consumer cannot be fused into
		// its producer. ProductCatalogApi is the standalone read API.
		Edges: []dag.Edge{
			{From: "PhotoAssign", To: "PhotoReceive", Trigger: dag.TriggerSync},
			{From: "PhotoReceive", To: "PhotoProcessor", Trigger: dag.TriggerSync},
			{From: "PhotoProcessor", To: "PhotoReport", Trigger: dag.TriggerSync},
			{From: "EventWriter", To: "ProductCatalogBuilder", Trigger: dag.TriggerStream},
		},
	}
}

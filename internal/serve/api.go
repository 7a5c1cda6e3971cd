package serve

import (
	"sizeless"
	"sizeless/internal/monitoring"
	"sizeless/internal/recommender"
)

// IngestRequest is the POST /v1/ingest body: one monitoring window per
// function, measured at the service's base memory size. Accepted windows
// are queued (202) and committed asynchronously by the shard drainers; a
// request that would overflow any shard queue is rejected whole with 429,
// and one carrying a window that fails monitoring.ValidateWindow is
// rejected whole with 400 naming the function and the invocation index.
//
// The daemon reads the whole body, up to Config.MaxBodyBytes (413 past
// it), and decodes it as encoding/json would decode this type with
// unknown fields disallowed: field names match case-insensitively, null
// leaves a value unset, and Start and Duration take integer nanoseconds.
// Anything but whitespace after the object is refused with 400.
type IngestRequest struct {
	Windows map[string][]monitoring.Invocation `json:"windows"`
}

// IngestResponse acknowledges an accepted ingest.
type IngestResponse struct {
	QueuedFunctions   int   `json:"queued_functions"`
	QueuedInvocations int   `json:"queued_invocations"`
	QueuedBytes       int64 `json:"queued_bytes"`
}

// RecommendRequest is the POST /v1/recommend body: the stateless scoring
// path. Tradeoff overrides the service's configured t parameter for this
// request only; omitted means the service default. Either way, costs use
// the predictor's provider pricing.
//
// The body is decoded as encoding/json decodes this type with unknown
// fields disallowed, up to Config.MaxBodyBytes (413 past it). Anything but
// whitespace after the object is refused with 400.
type RecommendRequest struct {
	Summaries []monitoring.Summary `json:"summaries"`
	Tradeoff  *float64             `json:"tradeoff,omitempty"`
}

// RecommendResponse aligns positionally with the request's summaries.
type RecommendResponse struct {
	Recommendations []sizeless.Recommendation `json:"recommendations"`
}

// FleetResponse is the GET /v1/fleet body: headline numbers plus every
// tracked function's status in first-seen order.
type FleetResponse struct {
	Summary   recommender.FleetSummary `json:"summary"`
	Functions []recommender.Status     `json:"functions"`
}

// Health is the GET /v1/healthz body.
type Health struct {
	Status           string                   `json:"status"`
	UptimeSeconds    float64                  `json:"uptime_seconds"`
	Restored         bool                     `json:"restored"`
	Fleet            recommender.FleetSummary `json:"fleet"`
	Queues           []QueueStatus            `json:"queues"`
	AcceptedJobs     int64                    `json:"accepted_jobs"`
	RejectedBatches  int64                    `json:"rejected_batches"`
	IngestedJobs     int64                    `json:"ingested_jobs"`
	IngestErrors     int64                    `json:"ingest_errors"`
	Snapshots        int64                    `json:"snapshots"`
	LastSnapshotUnix int64                    `json:"last_snapshot_unix,omitempty"`
	Adaptations      int64                    `json:"adaptations"`
	ModelFingerprint string                   `json:"model_fingerprint"`
	LastErrors       []string                 `json:"last_errors,omitempty"`
}

// ErrorResponse is the uniform error body.
type ErrorResponse struct {
	Error string `json:"error"`
}

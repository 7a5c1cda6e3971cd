// Package services simulates the managed cloud services the paper's
// functions interact with: DynamoDB, S3, SNS, SQS, API Gateway, Step
// Functions, Rekognition, Aurora, Kinesis, and generic external HTTP APIs.
//
// The crucial property for Sizeless is that a managed service's *remote*
// processing time does not change with the calling function's memory size —
// only the data transfer (which rides the function's memory-scaled network
// bandwidth) and the client-side marshaling CPU do. This split is what
// makes network-heavy functions scale poorly with memory (paper Fig. 1,
// DynamoDB and API-Call examples; Fig. 5 "Bytes Received/Second" PDP).
//
// Latencies are sampled from lognormal bodies with a bounded-Pareto tail,
// which reproduces the occasional stragglers real services exhibit and
// gives the stability analysis (Fig. 3) realistic variance to work with.
package services

import (
	"fmt"

	"sizeless/internal/xrand"
)

// Kind identifies a managed service.
type Kind int

// The managed services used by the paper's segments and case studies.
const (
	DynamoDB Kind = iota + 1
	S3
	SNS
	SQS
	APIGateway
	StepFunctions
	Rekognition
	Aurora
	Kinesis
	ExternalAPI
)

var kindNames = map[Kind]string{
	DynamoDB:      "dynamodb",
	S3:            "s3",
	SNS:           "sns",
	SQS:           "sqs",
	APIGateway:    "apigateway",
	StepFunctions: "stepfunctions",
	Rekognition:   "rekognition",
	Aurora:        "aurora",
	Kinesis:       "kinesis",
	ExternalAPI:   "externalapi",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("service(%d)", int(k))
}

// Profile describes one service's latency behaviour.
type Profile struct {
	// BaseLatencyMs is the mean remote processing latency per operation,
	// excluding data transfer.
	BaseLatencyMs float64
	// LatencyCoV is the coefficient of variation of the lognormal body.
	LatencyCoV float64
	// TailProb is the probability an operation lands in the heavy tail.
	TailProb float64
	// TailMaxFactor bounds the tail at TailMaxFactor × BaseLatencyMs.
	TailMaxFactor float64
	// ClientCPUMs is the client-side marshaling/SDK CPU per operation,
	// executed on the function's (memory-scaled) CPU.
	ClientCPUMs float64
	// ServerBandwidthMBps caps transfer throughput on the service side;
	// the effective transfer bandwidth is the min of this and the
	// function's network bandwidth.
	ServerBandwidthMBps float64
}

// DefaultProfiles returns the calibrated latency profiles. Values follow
// the public measurement literature for intra-region calls circa 2020.
func DefaultProfiles() map[Kind]Profile {
	return map[Kind]Profile{
		DynamoDB:      {BaseLatencyMs: 7, LatencyCoV: 0.35, TailProb: 0.02, TailMaxFactor: 6, ClientCPUMs: 0.9, ServerBandwidthMBps: 60},
		S3:            {BaseLatencyMs: 22, LatencyCoV: 0.45, TailProb: 0.03, TailMaxFactor: 8, ClientCPUMs: 1.2, ServerBandwidthMBps: 90},
		SNS:           {BaseLatencyMs: 11, LatencyCoV: 0.40, TailProb: 0.02, TailMaxFactor: 6, ClientCPUMs: 0.8, ServerBandwidthMBps: 40},
		SQS:           {BaseLatencyMs: 9, LatencyCoV: 0.40, TailProb: 0.02, TailMaxFactor: 6, ClientCPUMs: 0.8, ServerBandwidthMBps: 40},
		APIGateway:    {BaseLatencyMs: 15, LatencyCoV: 0.35, TailProb: 0.02, TailMaxFactor: 5, ClientCPUMs: 0.6, ServerBandwidthMBps: 50},
		StepFunctions: {BaseLatencyMs: 18, LatencyCoV: 0.40, TailProb: 0.02, TailMaxFactor: 5, ClientCPUMs: 0.7, ServerBandwidthMBps: 30},
		Rekognition:   {BaseLatencyMs: 420, LatencyCoV: 0.30, TailProb: 0.03, TailMaxFactor: 4, ClientCPUMs: 2.0, ServerBandwidthMBps: 45},
		Aurora:        {BaseLatencyMs: 5, LatencyCoV: 0.30, TailProb: 0.015, TailMaxFactor: 8, ClientCPUMs: 0.7, ServerBandwidthMBps: 70},
		Kinesis:       {BaseLatencyMs: 13, LatencyCoV: 0.40, TailProb: 0.02, TailMaxFactor: 6, ClientCPUMs: 0.9, ServerBandwidthMBps: 50},
		ExternalAPI:   {BaseLatencyMs: 110, LatencyCoV: 0.35, TailProb: 0.04, TailMaxFactor: 6, ClientCPUMs: 0.5, ServerBandwidthMBps: 25},
	}
}

// Registry resolves service kinds to profiles and samples call latencies.
// The zero value is unusable; construct with NewRegistry.
type Registry struct {
	profiles map[Kind]Profile
}

// NewRegistry returns a registry over the given profiles; nil means
// DefaultProfiles().
func NewRegistry(profiles map[Kind]Profile) *Registry {
	if profiles == nil {
		profiles = DefaultProfiles()
	}
	copied := make(map[Kind]Profile, len(profiles))
	for k, p := range profiles {
		copied[k] = p
	}
	return &Registry{profiles: copied}
}

// Profile returns the profile for kind.
func (r *Registry) Profile(kind Kind) (Profile, error) {
	p, ok := r.profiles[kind]
	if !ok {
		return Profile{}, fmt.Errorf("services: no profile for %v", kind)
	}
	return p, nil
}

// SetProfile overrides one service's profile (used by failure-injection
// tests to create latency spikes).
func (r *Registry) SetProfile(kind Kind, p Profile) {
	r.profiles[kind] = p
}

// SampleLatency draws one remote-latency sample in milliseconds for an
// operation against the service. The sample excludes data-transfer time.
func (r *Registry) SampleLatency(kind Kind, rng *xrand.Stream) (float64, error) {
	p, ok := r.profiles[kind]
	if !ok {
		return 0, fmt.Errorf("services: no profile for %v", kind)
	}
	if rng.Bernoulli(p.TailProb) {
		// Heavy tail: bounded Pareto between 1.5× and TailMaxFactor× base.
		return rng.BoundedPareto(1.2, 1.5*p.BaseLatencyMs, p.TailMaxFactor*p.BaseLatencyMs), nil
	}
	return rng.LogNormal(p.BaseLatencyMs, p.LatencyCoV), nil
}

// SetupScript returns the infrastructure-as-code stanza a segment using
// this service contributes to the generated function's deployment package
// (the paper's segments each ship setup code for their services, §3.1).
func SetupScript(kind Kind) string {
	switch kind {
	case DynamoDB:
		return "aws dynamodb create-table --table-name ${STACK}-table --billing-mode PAY_PER_REQUEST"
	case S3:
		return "aws s3 mb s3://${STACK}-bucket"
	case SNS:
		return "aws sns create-topic --name ${STACK}-topic"
	case SQS:
		return "aws sqs create-queue --queue-name ${STACK}-queue"
	case APIGateway:
		return "aws apigatewayv2 create-api --name ${STACK}-api --protocol-type HTTP"
	case StepFunctions:
		return "aws stepfunctions create-state-machine --name ${STACK}-sm --definition file://sm.json"
	case Rekognition:
		return "aws rekognition create-collection --collection-id ${STACK}-faces"
	case Aurora:
		return "aws rds create-db-cluster --db-cluster-identifier ${STACK}-aurora --engine aurora-postgresql"
	case Kinesis:
		return "aws kinesis create-stream --stream-name ${STACK}-stream --shard-count 1"
	case ExternalAPI:
		return "# external API: no setup required"
	default:
		return "# unknown service"
	}
}

// TeardownScript returns the matching teardown stanza.
func TeardownScript(kind Kind) string {
	switch kind {
	case DynamoDB:
		return "aws dynamodb delete-table --table-name ${STACK}-table"
	case S3:
		return "aws s3 rb s3://${STACK}-bucket --force"
	case SNS:
		return "aws sns delete-topic --topic-arn ${TOPIC_ARN}"
	case SQS:
		return "aws sqs delete-queue --queue-url ${QUEUE_URL}"
	case APIGateway:
		return "aws apigatewayv2 delete-api --api-id ${API_ID}"
	case StepFunctions:
		return "aws stepfunctions delete-state-machine --state-machine-arn ${SM_ARN}"
	case Rekognition:
		return "aws rekognition delete-collection --collection-id ${STACK}-faces"
	case Aurora:
		return "aws rds delete-db-cluster --db-cluster-identifier ${STACK}-aurora --skip-final-snapshot"
	case Kinesis:
		return "aws kinesis delete-stream --stream-name ${STACK}-stream"
	case ExternalAPI:
		return "# external API: no teardown required"
	default:
		return "# unknown service"
	}
}

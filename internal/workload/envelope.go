package workload

import (
	"encoding/json"
	"io"
)

// Envelope is the record of one request: what was scheduled, what came
// back, and what the response disclosed about how it was produced (cache
// disposition, shard tally). Run returns one per issued op; Summarize
// folds them, and WriteEnvelopes keeps them as the JSONL artifact a failed
// gate is diagnosed from.
type Envelope struct {
	// Seq is the op's index in its plan.
	Seq int `json:"seq"`

	Endpoint string `json:"endpoint"`
	Path     string `json:"path"`

	// SchedMS is the scheduled arrival, ms from run start.
	SchedMS float64 `json:"sched_ms"`
	// LatencyMS is completion minus *scheduled* arrival — the
	// coordinated-omission-free latency a real open-loop client would see.
	LatencyMS float64 `json:"latency_ms"`
	// ServiceMS is completion minus actual send — the server's share
	// alone. LatencyMS - ServiceMS is how late the generator itself was.
	ServiceMS float64 `json:"service_ms"`

	// Status is the HTTP status, or 0 when the request failed in
	// transport (see Error).
	Status int `json:"status"`
	// Cache is the X-Forestview-Cache disposition
	// (hit|miss|coalesced|prefetched), empty when the endpoint does not
	// disclose one. "prefetched" is a hit whose tile the server rendered
	// speculatively before this request asked for it.
	Cache string `json:"cache,omitempty"`
	// ShardsOK/ShardsTotal/Degraded mirror the X-Forestview-Shards-*
	// headers on scattered responses.
	ShardsOK    int    `json:"shards_ok,omitempty"`
	ShardsTotal int    `json:"shards_total,omitempty"`
	Degraded    bool   `json:"degraded,omitempty"`
	Error       string `json:"error,omitempty"`
}

// WriteEnvelopes writes envelopes as JSONL.
func WriteEnvelopes(w io.Writer, envs []Envelope) error {
	enc := json.NewEncoder(w)
	for i := range envs {
		if err := enc.Encode(&envs[i]); err != nil {
			return err
		}
	}
	return nil
}

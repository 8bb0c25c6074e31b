package main

// wire.go holds the benchmark's own copy of the documented JSON API.  The
// generator builds every request body from these structs, never from the
// server's types, so a server refactor cannot silently change what the
// benchmark sends.  Responses decode leniently (unknown fields are
// ignored); a renamed field shows up as a zero value, which the answer
// checks reject.

const (
	routeEmbed    = "/v1/embed"
	routeSimulate = "/v1/simulate"
)

// Embed hosts as named on the wire.
const (
	hostXTree     = "xtree"
	hostHypercube = "hypercube"
	hostUniversal = "universal"
)

type treeSpec struct {
	Encoded string `json:"encoded"`
}

type embedRequest struct {
	Tree      *treeSpec  `json:"tree,omitempty"`
	Trees     []treeSpec `json:"trees,omitempty"`
	Host      string     `json:"host,omitempty"`
	Injective bool       `json:"injective,omitempty"`
}

type embedItem struct {
	Index        int        `json:"index"`
	N            int        `json:"n"`
	Host         string     `json:"host"`
	HostVertices int64      `json:"host_vertices"`
	Height       int        `json:"height"`
	Dilation     int        `json:"dilation"`
	AvgDilation  float64    `json:"avg_dilation"`
	MaxLoad      int        `json:"max_load"`
	Expansion    float64    `json:"expansion"`
	Injective    *embedItem `json:"injective"`
	Error        string     `json:"error"`
}

type embedResponse struct {
	Items []embedItem `json:"items"`
}

type faultSpec struct {
	Seed        int64   `json:"seed"`
	DropProb    float64 `json:"drop_prob"`
	CorruptProb float64 `json:"corrupt_prob"`
	MaxRetries  int     `json:"max_retries"`
}

type simulateRequest struct {
	Tree       treeSpec   `json:"tree"`
	Workload   string     `json:"workload"`
	Baseline   bool       `json:"baseline,omitempty"`
	Faults     *faultSpec `json:"faults,omitempty"`
	Partitions int        `json:"partitions,omitempty"`
}

// simCounters mirrors the "sim" object of a simulate response.  Two runs
// of one body must agree on every field.
type simCounters struct {
	Cycles      int `json:"cycles"`
	Delivered   int `json:"delivered"`
	HopsTotal   int `json:"hops_total"`
	MaxLinkLoad int `json:"max_link_load"`
	MaxQueue    int `json:"max_queue"`
	LatencyP50  int `json:"latency_p50"`
	LatencyP99  int `json:"latency_p99"`
	LatencyMax  int `json:"latency_max"`
	Drops       int `json:"drops"`
	Corruptions int `json:"corruptions"`
	Retransmits int `json:"retransmits"`
	Reroutes    int `json:"reroutes"`
	Unreachable int `json:"unreachable"`
}

type distShard struct {
	Hops int `json:"hops"`
}

type distInfo struct {
	Partitions int         `json:"partitions"`
	Shards     []distShard `json:"shards"`
}

type simulateResponse struct {
	Embed       embedItem   `json:"embed"`
	Sim         simCounters `json:"sim"`
	IdealCycles int         `json:"ideal_cycles"`
	Slowdown    float64     `json:"slowdown"`
	Dist        *distInfo   `json:"dist"`
}

// streamStart is the payload of a stream's "start" event.
type streamStart struct {
	Embed embedItem `json:"embed"`
}

type sessionsResponse struct {
	Sessions []struct {
		ID     string `json:"id"`
		Events uint64 `json:"events"`
	} `json:"sessions"`
}

type healthResponse struct {
	Status         string `json:"status"`
	ActiveSessions int    `json:"active_sessions"`
}

package server

// api.go defines the wire format of the JSON API and the validation that
// turns untrusted request bodies into checked library inputs.  Every
// validation failure maps to a structured 4xx error (apiError) so clients
// can distinguish "my request is wrong" from "the server is overloaded"
// (shed, 429) and "the server is wrong" (500).

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
	"xtreesim/internal/distsim"
	"xtreesim/internal/engine"
	"xtreesim/internal/netsim"
)

// Error codes carried in ErrorBody.Code.
const (
	CodeInvalidRequest   = "invalid_request"
	CodePayloadTooLarge  = "payload_too_large"
	CodeShed             = "shed"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeClientGone       = "client_gone"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeNotFound         = "not_found"
	CodeInternal         = "internal"
)

// ErrorBody is the JSON error envelope: {"error":{"code":...,"message":...}}.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the machine-readable code and the human-readable
// message of one API error.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// apiError is an error with an HTTP status and a stable code.
type apiError struct {
	status int
	code   string
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...interface{}) *apiError {
	return &apiError{status: http.StatusBadRequest, code: CodeInvalidRequest, msg: fmt.Sprintf(format, args...)}
}

// TreeSpec names one guest tree, either by its nested-parenthesis
// encoding (bintree.Encode) or by generator family, size and seed.
//
// Seed is a pointer so the API can tell "seed omitted" apart from an
// explicit "seed": 0 — the zero value of int64 is a perfectly valid
// generator seed.  An explicit seed (zero included) is honored exactly,
// so repeated requests are deterministic and collapse in the canonical
// cache; an omitted seed draws a fresh one per request (deriveSeed), so
// "give me some random tree" really varies between calls.
type TreeSpec struct {
	Encoded string `json:"encoded,omitempty"`
	Family  string `json:"family,omitempty"`
	N       int    `json:"n,omitempty"`
	Seed    *int64 `json:"seed,omitempty"`
}

// Seed returns a pointer to v, for building TreeSpec literals.
func Seed(v int64) *int64 { return &v }

// seedCounter drives deriveSeed.  The process start time salts the
// sequence so two runs of the same client script do not replay the same
// "random" trees; the counter keeps seeds distinct within a run.
var seedCounter atomic.Int64

func init() { seedCounter.Store(time.Now().UnixNano()) }

// deriveSeed returns a fresh generator seed for requests that omit one,
// distinct across requests and across process restarts.  The splitmix64
// finalizer spreads the near-sequential counter values over the whole
// seed space so neighboring requests do not get correlated rand streams.
func deriveSeed() int64 {
	z := uint64(seedCounter.Add(1)) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// resolve turns the spec into a tree, enforcing the server's node cap.
func (ts *TreeSpec) resolve(maxNodes int) (*bintree.Tree, error) {
	switch {
	case ts.Encoded != "" && ts.Family != "":
		return nil, badRequest("tree: set either encoded or family, not both")
	case ts.Encoded != "":
		t, err := bintree.Decode(ts.Encoded)
		if err != nil {
			return nil, badRequest("tree: %v", err)
		}
		if t.N() == 0 {
			return nil, badRequest("tree: empty tree")
		}
		if t.N() > maxNodes {
			return nil, badRequest("tree: %d nodes exceeds the per-tree limit %d", t.N(), maxNodes)
		}
		return t, nil
	case ts.Family != "":
		if ts.N <= 0 {
			return nil, badRequest("tree: family %q needs n > 0", ts.Family)
		}
		if ts.N > maxNodes {
			return nil, badRequest("tree: n=%d exceeds the per-tree limit %d", ts.N, maxNodes)
		}
		fam, ok := familyByName(ts.Family)
		if !ok {
			return nil, badRequest("tree: unknown family %q (have %v)", ts.Family, bintree.Families)
		}
		seed := ts.Seed
		if seed == nil {
			seed = Seed(deriveSeed())
		}
		t, err := bintree.Generate(fam, ts.N, rand.New(rand.NewSource(*seed)))
		if err != nil {
			return nil, badRequest("tree: %v", err)
		}
		return t, nil
	default:
		return nil, badRequest("tree: one of encoded or family is required")
	}
}

func familyByName(name string) (bintree.Family, bool) {
	for _, f := range bintree.Families {
		if string(f) == name {
			return f, true
		}
	}
	return "", false
}

// Host names accepted by EmbedRequest.Host.
const (
	HostXTree     = "xtree"
	HostHypercube = "hypercube"
	HostUniversal = "universal"
)

// EmbedRequest is the body of POST /v1/embed.  Exactly one of Tree and
// Trees must be set; Trees runs as one batch through the shared engine.
type EmbedRequest struct {
	Tree  *TreeSpec  `json:"tree,omitempty"`
	Trees []TreeSpec `json:"trees,omitempty"`
	// Host selects the target network: "xtree" (Theorem 1, default),
	// "hypercube" (Theorem 3) or "universal" (Theorem 4).
	Host string `json:"host,omitempty"`
	// Height forces the X-tree host height (façade WithHeight); 0 means
	// the optimal height.  Only valid for the xtree host, and at most
	// OptimalHeight(max-tree) + 4: Theorem 2's X(r+4) for the largest
	// tree the server admits.
	Height int `json:"height,omitempty"`
	// Strict turns condition-(3′) accounting into hard errors (façade
	// WithStrict).  Only valid for the xtree host.
	Strict bool `json:"strict,omitempty"`
	// Injective additionally derives the Theorem 2 injective embedding.
	// Only valid for the xtree host.
	Injective bool `json:"injective,omitempty"`
}

func (req *EmbedRequest) specs(maxBatch int) ([]TreeSpec, error) {
	if (req.Tree != nil) == (len(req.Trees) > 0) {
		return nil, badRequest("exactly one of tree and trees is required")
	}
	if req.Tree != nil {
		return []TreeSpec{*req.Tree}, nil
	}
	if len(req.Trees) > maxBatch {
		return nil, badRequest("batch of %d trees exceeds the limit %d", len(req.Trees), maxBatch)
	}
	return req.Trees, nil
}

// validate checks the request's host options.  maxTreeNodes is the
// server's per-tree cap, which bounds the height a request may pin: an
// embedder's host arrays grow as 2^height, whatever the guest's size.
func (req *EmbedRequest) validate(maxTreeNodes int) error {
	switch req.Host {
	case "", HostXTree:
	case HostHypercube, HostUniversal:
		if req.Height != 0 || req.Strict || req.Injective {
			return badRequest("height, strict and injective apply only to the xtree host")
		}
	default:
		return badRequest("unknown host %q (have xtree, hypercube, universal)", req.Host)
	}
	if req.Height < 0 {
		return badRequest("negative height %d", req.Height)
	}
	if limit := core.OptimalHeight(maxTreeNodes) + 4; req.Height > limit {
		return badRequest("height %d above the limit %d for trees of at most %d nodes", req.Height, limit, maxTreeNodes)
	}
	return nil
}

// profile returns the engine profile of the request's xtree options.
func (req *EmbedRequest) profile() engine.Profile {
	return engine.Profile{Strict: req.Strict, Height: req.Height}
}

// hostName returns the normalized host, defaulting to xtree.
func (req *EmbedRequest) hostName() string {
	if req.Host == "" {
		return HostXTree
	}
	return req.Host
}

// EmbedItem is the per-tree outcome inside an EmbedResponse.  Exactly one
// of Error and the metric fields is meaningful.
type EmbedItem struct {
	Index        int     `json:"index"`
	N            int     `json:"n,omitempty"`
	Host         string  `json:"host,omitempty"`
	HostVertices int64   `json:"host_vertices,omitempty"`
	Height       int     `json:"height,omitempty"` // X-tree height or hypercube dimension
	Dilation     int     `json:"dilation,omitempty"`
	AvgDilation  float64 `json:"avg_dilation,omitempty"`
	MaxLoad      int     `json:"max_load,omitempty"`
	Expansion    float64 `json:"expansion,omitempty"`
	CacheHit     bool    `json:"cache_hit,omitempty"`
	// Injective reports the Theorem 2 derivation when requested.
	Injective *EmbedItem `json:"injective,omitempty"`
	Error     string     `json:"error,omitempty"`
}

// EmbedResponse is the body of a successful POST /v1/embed.
type EmbedResponse struct {
	Items     []EmbedItem `json:"items"`
	ElapsedMS float64     `json:"elapsed_ms"`
}

// Workload names accepted by SimulateRequest.Workload.
const (
	WorkloadDivideConquer = "divide-conquer"
	WorkloadBroadcast     = "broadcast"
	WorkloadExchange      = "exchange"
	WorkloadScan          = "scan"
)

// FaultSpec mirrors netsim.FaultPlan on the wire.
type FaultSpec struct {
	Seed        int64            `json:"seed,omitempty"`
	DropProb    float64          `json:"drop_prob,omitempty"`
	CorruptProb float64          `json:"corrupt_prob,omitempty"`
	MaxRetries  int              `json:"max_retries,omitempty"`
	BackoffBase int              `json:"backoff_base,omitempty"`
	LinkKills   []LinkKillSpec   `json:"link_kills,omitempty"`
	VertexKills []VertexKillSpec `json:"vertex_kills,omitempty"`
}

// LinkKillSpec schedules one permanent link failure.
type LinkKillSpec struct {
	U     int32 `json:"u"`
	V     int32 `json:"v"`
	Cycle int   `json:"cycle"`
}

// VertexKillSpec schedules one permanent vertex failure.
type VertexKillSpec struct {
	V     int32 `json:"v"`
	Cycle int   `json:"cycle"`
}

func (fs *FaultSpec) plan() *netsim.FaultPlan {
	if fs == nil {
		return nil
	}
	p := &netsim.FaultPlan{
		Seed:        fs.Seed,
		DropProb:    fs.DropProb,
		CorruptProb: fs.CorruptProb,
		MaxRetries:  fs.MaxRetries,
		BackoffBase: fs.BackoffBase,
	}
	for _, k := range fs.LinkKills {
		p.LinkKills = append(p.LinkKills, netsim.LinkKill{U: k.U, V: k.V, Cycle: k.Cycle})
	}
	for _, k := range fs.VertexKills {
		p.VertexKills = append(p.VertexKills, netsim.VertexKill{V: k.V, Cycle: k.Cycle})
	}
	return p
}

// SimulateRequest is the body of POST /v1/simulate: embed the tree
// (Theorem 1, through the shared engine) and run the workload on the
// simulated X-tree machine.
type SimulateRequest struct {
	Tree     *TreeSpec `json:"tree"`
	Workload string    `json:"workload"`
	// Waves parameterizes divide-conquer (default 1); Rounds
	// parameterizes exchange (default 1).
	Waves     int `json:"waves,omitempty"`
	Rounds    int `json:"rounds,omitempty"`
	MaxCycles int `json:"max_cycles,omitempty"`
	// Baseline additionally runs the workload on the ideal binary-tree
	// machine and reports the slowdown ratio.
	Baseline bool       `json:"baseline,omitempty"`
	Faults   *FaultSpec `json:"faults,omitempty"`
	// Partitions shards the simulation across that many epoch-barrier
	// workers (internal/distsim), partitioned along X-tree subtrees.  The
	// counters are byte-identical to the unpartitioned run; 0 or 1 runs
	// unpartitioned.
	Partitions int `json:"partitions,omitempty"`
}

// MaxSimPartitions caps SimulateRequest.Partitions well below the
// distsim limit: each shard past the first is a goroutine holding queue
// state, and a request should not be able to demand hundreds of them.
const MaxSimPartitions = 64

func (req *SimulateRequest) validate() error {
	if req.Tree == nil {
		return badRequest("tree is required")
	}
	switch req.Workload {
	case WorkloadDivideConquer, WorkloadBroadcast, WorkloadExchange, WorkloadScan:
	case "":
		return badRequest("workload is required (divide-conquer, broadcast, exchange, scan)")
	default:
		return badRequest("unknown workload %q (have divide-conquer, broadcast, exchange, scan)", req.Workload)
	}
	if req.Waves < 0 || req.Rounds < 0 || req.MaxCycles < 0 {
		return badRequest("waves, rounds and max_cycles must be non-negative")
	}
	if req.Partitions < 0 || req.Partitions > MaxSimPartitions {
		return badRequest("partitions must lie in [0,%d] (distsim caps at %d)",
			MaxSimPartitions, distsim.MaxPartitions)
	}
	if fs := req.Faults; fs != nil {
		if fs.DropProb < 0 || fs.DropProb > 1 || fs.CorruptProb < 0 || fs.CorruptProb > 1 {
			return badRequest("fault probabilities must lie in [0,1]")
		}
		if fs.MaxRetries < 0 || fs.BackoffBase < 0 {
			return badRequest("max_retries and backoff_base must be non-negative")
		}
	}
	return nil
}

func (req *SimulateRequest) workload(t *bintree.Tree) netsim.Workload {
	switch req.Workload {
	case WorkloadBroadcast:
		return netsim.NewBroadcast(t)
	case WorkloadExchange:
		rounds := req.Rounds
		if rounds == 0 {
			rounds = 1
		}
		return netsim.NewExchange(t, rounds)
	case WorkloadScan:
		return netsim.NewScan(t)
	default:
		waves := req.Waves
		if waves == 0 {
			waves = 1
		}
		return netsim.NewDivideConquer(t, waves)
	}
}

// SimCounters mirrors the netsim.Result counters on the wire.
type SimCounters struct {
	Cycles      int `json:"cycles"`
	Delivered   int `json:"delivered"`
	HopsTotal   int `json:"hops_total"`
	MaxLinkLoad int `json:"max_link_load"`
	MaxQueue    int `json:"max_queue"`
	LatencyP50  int `json:"latency_p50"`
	LatencyP99  int `json:"latency_p99"`
	LatencyMax  int `json:"latency_max"`
	Drops       int `json:"drops,omitempty"`
	Corruptions int `json:"corruptions,omitempty"`
	Retransmits int `json:"retransmits,omitempty"`
	Reroutes    int `json:"reroutes,omitempty"`
	Unreachable int `json:"unreachable,omitempty"`
}

func simCounters(r netsim.Result) SimCounters {
	return SimCounters{
		Cycles:      r.Cycles,
		Delivered:   r.Delivered,
		HopsTotal:   r.HopsTotal,
		MaxLinkLoad: r.MaxLinkLoad,
		MaxQueue:    r.MaxQueue,
		LatencyP50:  r.LatencyP50,
		LatencyP99:  r.LatencyP99,
		LatencyMax:  r.LatencyMax,
		Drops:       r.Drops,
		Corruptions: r.Corruptions,
		Retransmits: r.Retransmits,
		Reroutes:    r.Reroutes,
		Unreachable: r.Unreachable,
	}
}

// SimulateResponse is the body of a successful POST /v1/simulate.
type SimulateResponse struct {
	Embed EmbedItem   `json:"embed"`
	Sim   SimCounters `json:"sim"`
	// IdealCycles and Slowdown are set when Baseline was requested:
	// cycles on the ideal binary-tree machine and host/ideal ratio.
	IdealCycles int     `json:"ideal_cycles,omitempty"`
	Slowdown    float64 `json:"slowdown,omitempty"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	// Dist reports the sharding of a partitioned run (partitions ≥ 2).
	Dist *DistInfo `json:"dist,omitempty"`
}

// DistInfo describes how a partitioned simulation was sharded.
type DistInfo struct {
	// Partitions is the shard count that ran: the request's, capped at
	// the host's vertex count.
	Partitions       int             `json:"partitions"`
	BoundaryMessages int             `json:"boundary_messages"`
	Shards           []DistShardInfo `json:"shards"`
	// Deprecated: always 0 and never encoded.  Shards hand boundary
	// records over as Go values, so no bytes cross between them.
	BoundaryBytes int64 `json:"-"`
}

// DistShardInfo is one shard's share of a partitioned run.
type DistShardInfo struct {
	Vertices    int `json:"vertices"`
	Links       int `json:"links"`
	Hops        int `json:"hops"`
	BoundaryOut int `json:"boundary_out"`
}

// distInfo reports the shards that ran, which distsim caps at the host's
// vertex count, not the count the request asked for.
func distInfo(st distsim.Stats) *DistInfo {
	di := &DistInfo{
		Partitions:       len(st.Partitions),
		BoundaryMessages: st.BoundaryMessages,
	}
	for _, ps := range st.Partitions {
		di.Shards = append(di.Shards, DistShardInfo{
			Vertices:    ps.Vertices,
			Links:       ps.Links,
			Hops:        ps.Hops,
			BoundaryOut: ps.BoundaryOut,
		})
	}
	return di
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status        string  `json:"status"` // "ok" or "shutting_down"
	UptimeSeconds float64 `json:"uptime_seconds"`
	Version       string  `json:"version,omitempty"`
	// ActiveSessions counts streaming simulate runs in flight right now.
	ActiveSessions int `json:"active_sessions"`
}

// SessionInfo is one row of GET /v1/sessions.
type SessionInfo struct {
	ID         string  `json:"id"`
	State      string  `json:"state"` // running, done, failed
	Workload   string  `json:"workload"`
	TreeNodes  int     `json:"tree_nodes"`
	Partitions int     `json:"partitions,omitempty"`
	StartedAt  string  `json:"started_at"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	// Cycles is the last simulated cycle published — live progress while
	// running, the final count once done.
	Cycles int `json:"cycles"`
	// Events and Dropped report the session's telemetry ring: events
	// published, and events subscribers are known to have lost to ring
	// overwrite.
	Events      uint64 `json:"events"`
	Dropped     uint64 `json:"dropped,omitempty"`
	Subscribers int    `json:"subscribers"`
	Error       string `json:"error,omitempty"`
}

// SessionsResponse is the body of GET /v1/sessions.
type SessionsResponse struct {
	Sessions []SessionInfo `json:"sessions"`
}

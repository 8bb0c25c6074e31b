package server

// handlers.go implements the two API routes.  Both run inside the
// guarded middleware, so by the time a handler executes the request
// holds an admission slot, its body is size-capped, and its context
// carries the per-request deadline — the handler's only jobs are
// validation, the library calls, and shaping the response.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
	"xtreesim/internal/distsim"
	"xtreesim/internal/engine"
	"xtreesim/internal/graph"
	"xtreesim/internal/netsim"
	"xtreesim/internal/telemetry"
	"xtreesim/internal/trace"
	"xtreesim/internal/universal"
)

// decodeJSON parses the body into v with unknown-field rejection, and
// maps the failure modes to structured API errors.
func decodeJSON(r *http.Request, v interface{}) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return &apiError{status: http.StatusRequestEntityTooLarge, code: CodePayloadTooLarge,
				msg: "request body exceeds the size limit"}
		}
		return badRequest("body: %v", err)
	}
	return nil
}

// ctxError maps a context error to its API error (504 on deadline, 503
// on client cancellation).  The two must carry distinct codes: a
// deadline is the server running out of time — the client should retry
// with a bigger budget — while a cancellation is the client leaving,
// which no retry policy should act on.
func ctxError(err error) *apiError {
	if errors.Is(err, context.DeadlineExceeded) {
		return &apiError{status: http.StatusGatewayTimeout, code: CodeDeadlineExceeded,
			msg: "deadline exceeded"}
	}
	return &apiError{status: statusClientGone, code: CodeClientGone, msg: err.Error()}
}

// handleEmbed implements POST /v1/embed.
func (s *Server) handleEmbed(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req EmbedRequest
	if err := decodeJSON(r, &req); err != nil {
		writeAPIError(w, err)
		return
	}
	if err := req.validate(s.maxTreeNodes); err != nil {
		writeAPIError(w, err)
		return
	}
	specs, err := req.specs(s.maxBatch)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	// Resolve every spec before embedding anything: bad input fails the
	// whole request with a 4xx instead of burning engine time first.
	trees := make([]*bintree.Tree, len(specs))
	for i := range specs {
		t, err := specs[i].resolve(s.maxTreeNodes)
		if err != nil {
			writeAPIError(w, err)
			return
		}
		trees[i] = t
	}

	items, err := s.embedTrees(r.Context(), &req, trees)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, EmbedResponse{
		Items:     items,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	})
}

// embedTrees embeds a resolved batch for the requested host.  Per-item
// failures land in EmbedItem.Error; a whole-request failure (context
// expiry) is returned as an error.
func (s *Server) embedTrees(ctx context.Context, req *EmbedRequest, trees []*bintree.Tree) ([]EmbedItem, error) {
	if req.hostName() == HostUniversal {
		return s.embedUniversal(ctx, trees)
	}
	items := make([]EmbedItem, len(trees))
	// Strict and height-pinned requests ride the one engine as a
	// profile: they cache and coalesce like the default options do,
	// under keys of their own.
	for _, bi := range s.eng.EmbedBatchProfile(ctx, req.profile(), trees) {
		// The deadline is request-scoped: when the context killed the
		// batch, the whole request is a 504, not a 200 with every item
		// errored.
		if bi.Err != nil && errors.Is(bi.Err, ctx.Err()) && ctx.Err() != nil {
			return nil, ctxError(ctx.Err())
		}
		items[bi.Index] = s.embedItem(ctx, req, bi)
	}
	return items, nil
}

// embedItem shapes one engine outcome into the wire item.  The X-tree
// numbers are the engine's, measured once per cache entry, so a cache hit
// copies them.  The hypercube answer (Theorem 3's χ∘δ) takes its load from
// them too, since Lemma 3's χ is one-to-one, and its dilations from one
// pass over the guest edges under an embed.hypercube span.  The
// injective derivation runs per request: Theorem 2's relocation differs
// between isomorphic copies.
func (s *Server) embedItem(ctx context.Context, req *EmbedRequest, bi engine.BatchItem) EmbedItem {
	item := EmbedItem{Index: bi.Index}
	if bi.Err != nil {
		item.Error = bi.Err.Error()
		return item
	}
	res, q := bi.Result, bi.Quality
	if req.hostName() == HostHypercube {
		dil, avg := core.HypercubeDilationContext(ctx, res)
		dim := res.Host.Height() + 1 // χ maps X(r) into Q_{r+1}
		vertices := int64(1) << dim
		return EmbedItem{
			Index:        bi.Index,
			N:            res.Guest.N(),
			Host:         HostHypercube,
			HostVertices: vertices,
			Height:       dim,
			Dilation:     dil,
			AvgDilation:  avg,
			MaxLoad:      q.MaxLoad,
			Expansion:    float64(vertices) / float64(res.Guest.N()),
			CacheHit:     bi.CacheHit,
		}
	}
	item = EmbedItem{
		Index:        bi.Index,
		N:            res.Guest.N(),
		Host:         HostXTree,
		HostVertices: res.Host.NumVertices(),
		Height:       res.Host.Height(),
		Dilation:     q.Dilation,
		AvgDilation:  q.AvgDilation,
		MaxLoad:      q.MaxLoad,
		Expansion:    res.Expansion(),
		CacheHit:     bi.CacheHit,
	}
	if req.Injective {
		inj, err := core.EmbedInjectiveContext(ctx, res)
		if err != nil {
			item.Error = err.Error()
			return item
		}
		iemb := inj.Embedding()
		idil, iavg := iemb.DilationStats()
		item.Injective = &EmbedItem{
			Index:        bi.Index,
			N:            res.Guest.N(),
			Host:         HostXTree,
			HostVertices: inj.Host.NumVertices(),
			Height:       inj.Host.Height(),
			Dilation:     idil,
			AvgDilation:  iavg,
			MaxLoad:      iemb.MaxLoad(),
			Expansion:    iemb.Expansion(),
		}
	}
	return item
}

// embedUniversal answers the universal host: every guest is a subgraph
// of Theorem 4's G_n, so the placement is injective with dilation 1 by
// construction.  universal.Place checks every item's guest edges by the
// X-tree rule that defines G_n's edges, so G_n itself is never built.
// Each placement runs under a universal.place span, with the embedder's
// phase spans beneath it.
func (s *Server) embedUniversal(ctx context.Context, trees []*bintree.Tree) ([]EmbedItem, error) {
	items := make([]EmbedItem, len(trees))
	for i, t := range trees {
		if err := ctx.Err(); err != nil {
			return nil, ctxError(err)
		}
		pctx, span := trace.Start(ctx, "universal.place")
		_, size, err := universal.Place(pctx, t)
		span.SetAttr("n", int64(t.N())).SetAttr("size", int64(size))
		if err != nil {
			span.SetAttr("error", 1).End()
			items[i] = EmbedItem{Index: i, Error: err.Error()}
			continue
		}
		span.End()
		items[i] = EmbedItem{
			Index:        i,
			N:            t.N(),
			Host:         HostUniversal,
			HostVertices: int64(size),
			Dilation:     1,
			AvgDilation:  1,
			MaxLoad:      1,
			Expansion:    float64(size) / float64(t.N()),
		}
	}
	return items, nil
}

// handleSimulate implements POST /v1/simulate.  With ?stream=1 the
// response is an NDJSON session stream instead of one JSON document;
// either way the decode/validate/embed front is shared, so input errors
// are always plain 4xx JSON, never half-open streams.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req SimulateRequest
	if err := decodeJSON(r, &req); err != nil {
		writeAPIError(w, err)
		return
	}
	if err := req.validate(); err != nil {
		writeAPIError(w, err)
		return
	}
	tree, err := req.Tree.resolve(s.maxTreeNodes)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	ctx := r.Context()

	// Embed with the default options: simulate requests of isomorphic
	// trees reuse the cached embedding like embed requests do.
	bi := s.eng.EmbedBatch(ctx, []*bintree.Tree{tree})[0]
	if bi.Err != nil {
		if errors.Is(bi.Err, context.DeadlineExceeded) || errors.Is(bi.Err, context.Canceled) {
			writeAPIError(w, ctxError(bi.Err))
			return
		}
		writeAPIError(w, badRequest("embed: %v", bi.Err))
		return
	}
	res := bi.Result
	embItem := s.embedItem(ctx, &EmbedRequest{}, bi)

	cfg := netsim.OnXTree(res.Host, res.Assignment)
	cfg.MaxCycles = req.MaxCycles
	cfg.Faults = req.Faults.plan()
	if wantsStream(r) {
		s.handleSimulateStream(w, r, &req, tree, cfg, embItem)
		return
	}
	resp, err := s.runSimulate(ctx, &req, tree, cfg, embItem, nil, nil)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

// runSimulate executes the simulation half of /v1/simulate — the part
// shared between the one-shot JSON response and the streaming session.
// The returned error is already API-shaped (apiError).  rec, when
// non-nil, receives per-shard telemetry samples on partitioned runs.
// started, when non-nil, learns the shard count that runs (0 for an
// unpartitioned run) before the run's first event: distsim caps the
// request's count at the host's vertex count when it partitions.
func (s *Server) runSimulate(ctx context.Context, req *SimulateRequest, tree *bintree.Tree,
	cfg netsim.Config, embItem EmbedItem, rec *telemetry.Recorder, started func(parts int)) (SimulateResponse, error) {
	// The simulation runs under its own child span, which closes with
	// the run's counters; hop-level detail is what the event stream is
	// for.
	simSpan := trace.FromContext(ctx).Child("simulate")
	// Partitioned requests run through the distributed coordinator,
	// sharded along X-tree subtrees; the counters (and the observer event
	// stream) are byte-identical either way.
	var simRes netsim.Result
	var dist *DistInfo
	var err error
	if req.Partitions > 1 {
		dcfg := distsim.Config{
			Sim:        cfg,
			Partitions: req.Partitions,
			Partition:  distsim.XTreeSubtrees,
		}
		if started != nil {
			dcfg.Partition = func(host *graph.Graph, parts int) []int32 {
				started(parts)
				return distsim.XTreeSubtrees(host, parts)
			}
		}
		if rec != nil {
			dcfg.ShardSampler = func(sm distsim.ShardSample) {
				rec.Publish(telemetry.Event{
					TraceEvent:       netsim.TraceEvent{Type: telemetry.EventShard, Cycle: sm.Cycle},
					Shard:            sm.Shard,
					Hops:             sm.Hops,
					BoundaryOut:      sm.BoundaryOut,
					BarrierWaitNanos: sm.BarrierWaitNanos,
				})
			}
		}
		var st distsim.Stats
		simRes, st, err = distsim.RunStats(ctx, dcfg, req.workload(tree))
		if err == nil {
			dist = distInfo(st)
			s.dist.record(st)
		}
	} else {
		if started != nil {
			started(0)
		}
		simRes, err = netsim.RunContext(ctx, cfg, req.workload(tree))
	}
	// Close the span either way, but only record the counters when the
	// run succeeded: on error simRes is the zero value, and stamping
	// cycles=0 delivered=0 onto the span would read as a real (absurd)
	// measurement in the trace.
	if err != nil {
		simSpan.SetAttr("error", 1).End()
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return SimulateResponse{}, ctxError(err)
		}
		// Bad fault coordinates, impossible cycle caps, and similar
		// input-shaped failures: the client can fix these.
		return SimulateResponse{}, badRequest("simulate: %v", err)
	}
	simSpan.SetAttr("cycles", int64(simRes.Cycles)).
		SetAttr("delivered", int64(simRes.Delivered)).
		SetAttr("hops", int64(simRes.HopsTotal)).
		SetAttr("max_queue", int64(simRes.MaxQueue)).
		SetAttr("latency_p99", int64(simRes.LatencyP99)).
		SetAttr("drops", int64(simRes.Drops)).
		SetAttr("retransmits", int64(simRes.Retransmits)).
		SetAttr("unreachable", int64(simRes.Unreachable)).
		End()
	resp := SimulateResponse{Embed: embItem, Sim: simCounters(simRes), Dist: dist}

	if req.Baseline {
		idealCfg := netsim.Config{
			Host:      tree.AsGraph(),
			Place:     netsim.IdentityPlacement(tree.N()),
			MaxCycles: req.MaxCycles,
		}
		// The baseline exists for the slowdown ratio: its span carries the
		// cycle count only.
		baseSpan := trace.FromContext(ctx).Child("simulate-baseline")
		ideal, err := netsim.RunContext(ctx, idealCfg, req.workload(tree))
		if err != nil {
			baseSpan.SetAttr("error", 1).End()
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				return SimulateResponse{}, ctxError(err)
			}
			return SimulateResponse{}, badRequest("baseline: %v", err)
		}
		baseSpan.SetAttr("cycles", int64(ideal.Cycles)).End()
		resp.IdealCycles = ideal.Cycles
		if ideal.Cycles > 0 {
			resp.Slowdown = float64(simRes.Cycles) / float64(ideal.Cycles)
		}
	}
	return resp, nil
}

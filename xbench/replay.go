package main

// replay.go is the traced run.  After the timed run the benchmark replays
// a prefix of the workload's sequence on one thread in its own process,
// calling the exported functions the server calls, in the server's order,
// and records a span around each call.  The spans are the benchmark's own
// (internal/trace is not used, so a tracer refactor cannot move the
// measurement); they stay in memory and are written out at the end.
//
// A layer's self time is its span's duration minus its children's.  Where
// a layer calls another internally (engine -> canonical code, engine ->
// core, netsim and distsim -> routing tables), the inner call is timed
// again on the same input as an "inner" child and subtracted.  "ref"
// children are reference measurements off the server's path: the same
// simulation without observers, or single-process instead of partitioned.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
	"xtreesim/internal/distsim"
	"xtreesim/internal/engine"
	"xtreesim/internal/netsim"
	"xtreesim/internal/server"
	"xtreesim/internal/telemetry"
	"xtreesim/internal/universal"
)

const (
	kindInner = "inner"
	kindRef   = "ref"
)

// span is one timed call.  Count is the work it did (trees, guest nodes,
// hops or events, per span name), Events the telemetry events a watched
// run published, WaitNS the distsim barrier wait its shards reported.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Kind   string `json:"kind,omitempty"`
	Count  int64  `json:"count,omitempty"`
	Misses int64  `json:"misses,omitempty"`
	Events int64  `json:"events,omitempty"`
	WaitNS int64  `json:"wait_ns,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

type tracer struct {
	origin time.Time
	req    int
	spans  []*span
}

// begin opens a span under parent (0 for a request root).
func (t *tracer) begin(name string, parent int, kind string) *span {
	s := &span{ID: len(t.spans) + 1, Parent: parent, Req: t.req, Name: name, Kind: kind}
	t.spans = append(t.spans, s)
	s.Start = time.Since(t.origin).Nanoseconds()
	return s
}

func (t *tracer) end(s *span) { s.End = time.Since(t.origin).Nanoseconds() }

// timed runs f inside a new span.
func (t *tracer) timed(name string, parent int, kind string, f func()) *span {
	s := t.begin(name, parent, kind)
	f()
	t.end(s)
	return s
}

// replayer holds the in-process engine the replay embeds through.
type replayer struct {
	ctx context.Context
	eng *engine.Engine
	tr  *tracer
	chk *checker
}

// replay runs the traced prefix of w and returns its spans.  The engine
// has one worker, so batch items run one after another, and the shard
// count the server reported; it is warmed the same way as the server's.
func replay(ctx context.Context, w *workload, chk *checker, cacheShards int) ([]*span, error) {
	rp := &replayer{ctx: ctx, chk: chk,
		eng: engine.New(engine.Config{Workers: 1, CacheShards: cacheShards})}
	defer rp.eng.Close()
	for _, r := range w.warm {
		if err := rp.warmWith(r); err != nil {
			return nil, err
		}
	}
	for j := 0; w.fill != nil; j++ {
		st := rp.eng.Stats()
		if st.CacheLen >= st.CacheCap {
			break
		}
		if j > 8*st.CacheCap/len(w.fill(0).sizes) {
			return nil, fmt.Errorf("replay: cache still at %d of %d after %d fill batches", st.CacheLen, st.CacheCap, j)
		}
		if err := rp.warmWith(w.fill(j)); err != nil {
			return nil, err
		}
	}

	rp.tr = &tracer{origin: time.Now()}
	for i := 0; i < w.def.replay; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rp.tr.req = i
		r := w.at(i)
		var err error
		if r.route == routeEmbed {
			err = rp.embed(r)
		} else {
			err = rp.simulate(r)
		}
		if err != nil {
			return nil, fmt.Errorf("replay request %d: %w", i, err)
		}
	}
	return rp.tr.spans, nil
}

func (rp *replayer) warmWith(r request) error {
	var req embedRequest
	if err := json.Unmarshal(r.body, &req); err != nil {
		return err
	}
	trees := make([]*bintree.Tree, len(req.Trees))
	for k, ts := range req.Trees {
		t, err := bintree.Decode(ts.Encoded)
		if err != nil {
			return err
		}
		trees[k] = t
	}
	for _, bi := range rp.eng.EmbedBatch(rp.ctx, trees) {
		if bi.Err != nil {
			return bi.Err
		}
	}
	return nil
}

// decodeBody is the server's request decode: strict JSON into its type.
func decodeBody(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// encodeBody is the server's response encode.
func encodeBody(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err) // the server's response types always marshal
	}
	return buf.Bytes()
}

// embedThrough runs the engine step of a request with its inner calls.
func (rp *replayer) embedThrough(root *span, trees []*bintree.Tree) ([]engine.BatchItem, error) {
	tr := rp.tr
	es := tr.begin("engine.embed_batch", root.ID, "")
	items := rp.eng.EmbedBatch(rp.ctx, trees)
	tr.end(es)
	es.Count = int64(len(trees))
	for k, bi := range items {
		if bi.Err != nil {
			return nil, bi.Err
		}
		t := trees[k]
		tr.timed("bintree.canonical", es.ID, kindInner, func() { t.CanonicalCode() }).Count = int64(t.N())
		if !bi.CacheHit && !bi.Coalesced {
			es.Misses++
			var err error
			tr.timed("core.embed_xtree", es.ID, kindInner, func() {
				_, err = core.EmbedXTreeContext(rp.ctx, t, core.DefaultOptions())
			}).Count = int64(t.N())
			if err != nil {
				return nil, err
			}
		}
	}
	return items, nil
}

// xtreeItem is the server's embedItem for the X-tree host.
func (rp *replayer) xtreeItem(root *span, res *core.Result, index int) server.EmbedItem {
	it := server.EmbedItem{Index: index, N: res.Guest.N(), Host: server.HostXTree,
		HostVertices: res.Host.NumVertices(), Height: res.Host.Height(),
		MaxLoad: res.MaxLoad(), Expansion: res.Expansion()}
	rp.tr.timed("metrics.wire_xtree", root.ID, "", func() {
		emb := res.Embedding()
		it.Dilation = emb.DilationParallel()
		it.AvgDilation = emb.AverageDilation()
	})
	return it
}

func (rp *replayer) embed(r request) error {
	tr := rp.tr
	root := tr.begin("request", 0, "")
	defer tr.end(root)
	var req server.EmbedRequest
	var err error
	tr.timed("server.decode", root.ID, "", func() { err = decodeBody(r.body, &req) })
	if err != nil {
		return err
	}
	specs := req.Trees
	if req.Tree != nil {
		specs = []server.TreeSpec{*req.Tree}
	}
	trees := make([]*bintree.Tree, len(specs))
	for k := range specs {
		tr.timed("bintree.decode", root.ID, "", func() { trees[k], err = bintree.Decode(specs[k].Encoded) })
		if err != nil {
			return err
		}
	}

	items := make([]server.EmbedItem, len(trees))
	if req.Host == server.HostUniversal {
		for k, t := range trees {
			var u *universal.Graph
			tr.timed("universal.build", root.ID, "", func() { u = universal.NewForAtLeast(t.N()) })
			tr.timed("universal.embed", root.ID, "", func() {
				var assign []int
				if assign, err = u.EmbedAny(t); err == nil {
					err = u.IsSubgraph(t, assign)
				}
			})
			if err != nil {
				return err
			}
			items[k] = server.EmbedItem{Index: k, N: t.N(), Host: server.HostUniversal,
				HostVertices: int64(u.N()), Dilation: 1, AvgDilation: 1, MaxLoad: 1,
				Expansion: float64(u.N()) / float64(t.N())}
		}
	} else {
		bis, err := rp.embedThrough(root, trees)
		if err != nil {
			return err
		}
		for k, bi := range bis {
			if items[k], err = rp.derive(root, &req, bi); err != nil {
				return err
			}
		}
	}

	var body []byte
	tr.timed("server.encode", root.ID, "", func() { body = encodeBody(server.EmbedResponse{Items: items}) })
	return rp.chk.embedBody(r, body)
}

// derive shapes one engine result for the requested host, as the
// server's embedItem does.
func (rp *replayer) derive(root *span, req *server.EmbedRequest, bi engine.BatchItem) (server.EmbedItem, error) {
	tr := rp.tr
	res := bi.Result
	if req.Host == server.HostHypercube {
		var hr *core.HypercubeResult
		tr.timed("core.hypercube", root.ID, "", func() { hr = core.EmbedHypercubeContext(rp.ctx, res) })
		it := server.EmbedItem{Index: bi.Index, N: res.Guest.N(), Host: server.HostHypercube,
			HostVertices: hr.Host.NumVertices(), Height: hr.Host.Dim(), CacheHit: bi.CacheHit}
		tr.timed("metrics.wire_hypercube", root.ID, "", func() {
			emb := hr.Embedding()
			it.Dilation, it.AvgDilation = emb.DilationParallel(), emb.AverageDilation()
			it.MaxLoad, it.Expansion = emb.MaxLoad(), emb.Expansion()
		})
		return it, nil
	}
	it := rp.xtreeItem(root, res, bi.Index)
	it.CacheHit = bi.CacheHit
	if req.Injective {
		var inj *core.InjectiveResult
		var err error
		tr.timed("core.injective", root.ID, "", func() { inj, err = core.EmbedInjectiveContext(rp.ctx, res) })
		if err != nil {
			return it, err
		}
		sub := server.EmbedItem{Index: bi.Index, N: res.Guest.N(), Host: server.HostXTree,
			HostVertices: inj.Host.NumVertices(), Height: inj.Host.Height()}
		tr.timed("metrics.wire_xtree", root.ID, "", func() {
			emb := inj.Embedding()
			sub.Dilation, sub.AvgDilation = emb.DilationParallel(), emb.AverageDilation()
			sub.MaxLoad, sub.Expansion = emb.MaxLoad(), emb.Expansion()
		})
		it.Injective = &sub
	}
	return it, nil
}

// simWorkload builds the request's workload the way the server does; a
// workload is stateful, so every run gets a fresh one.
func simWorkload(req *server.SimulateRequest, t *bintree.Tree) netsim.Workload {
	switch req.Workload {
	case server.WorkloadBroadcast:
		return netsim.NewBroadcast(t)
	case server.WorkloadExchange:
		return netsim.NewExchange(t, max(req.Rounds, 1))
	case server.WorkloadScan:
		return netsim.NewScan(t)
	}
	return netsim.NewDivideConquer(t, max(req.Waves, 1))
}

func faultPlan(fs *server.FaultSpec) *netsim.FaultPlan {
	if fs == nil {
		return nil
	}
	return &netsim.FaultPlan{Seed: fs.Seed, DropProb: fs.DropProb, CorruptProb: fs.CorruptProb,
		MaxRetries: fs.MaxRetries, BackoffBase: fs.BackoffBase}
}

func (rp *replayer) simulate(r request) error {
	tr := rp.tr
	ctx := rp.ctx
	root := tr.begin("request", 0, "")
	defer tr.end(root)
	var req server.SimulateRequest
	var err error
	tr.timed("server.decode", root.ID, "", func() { err = decodeBody(r.body, &req) })
	if err != nil {
		return err
	}
	var tree *bintree.Tree
	tr.timed("bintree.decode", root.ID, "", func() { tree, err = bintree.Decode(req.Tree.Encoded) })
	if err != nil {
		return err
	}
	bis, err := rp.embedThrough(root, []*bintree.Tree{tree})
	if err != nil {
		return err
	}
	res := bis[0].Result
	item := rp.xtreeItem(root, res, 0)
	item.CacheHit = bis[0].CacheHit

	place := make([]int32, tree.N())
	for v, a := range res.Assignment {
		place[v] = int32(a.ID())
	}
	cfg := netsim.Config{Host: res.Host.AsGraph(), Place: place, MaxCycles: req.MaxCycles, Faults: faultPlan(req.Faults)}
	// watched adds a telemetry recorder on a fresh hub, as a stream=1
	// session does.
	watched := func(c netsim.Config) (netsim.Config, *telemetry.Hub, *telemetry.Recorder) {
		if !r.stream {
			return c, nil, nil
		}
		hub := telemetry.NewHub(0)
		rec := telemetry.NewRecorder(hub, "replay")
		c.Observers = append(append([]netsim.Observer(nil), c.Observers...), rec)
		return c, hub, rec
	}
	runCfg, hub, rec := watched(cfg)

	var simRes netsim.Result
	var dist *server.DistInfo
	if req.Partitions > 1 {
		var st distsim.Stats
		var wait int64
		// Unlike the server, the replay samples every partitioned run, not
		// only watched ones, so each reports its barrier wait.
		dcfg := distsim.Config{Sim: runCfg, Partitions: req.Partitions, Partition: distsim.XTreeSubtrees,
			ShardSampler: func(sm distsim.ShardSample) {
				wait += sm.BarrierWaitNanos
				if rec != nil {
					rec.Publish(telemetry.Event{
						TraceEvent: netsim.TraceEvent{Type: telemetry.EventShard, Cycle: sm.Cycle},
						Shard:      sm.Shard, Hops: sm.Hops, BoundaryOut: sm.BoundaryOut,
						BarrierWaitNanos: sm.BarrierWaitNanos,
					})
				}
			}}
		ds := tr.timed("distsim.run", root.ID, "", func() {
			simRes, st, err = distsim.RunStats(ctx, dcfg, simWorkload(&req, tree))
		})
		if err != nil {
			return err
		}
		ds.Count, ds.WaitNS = int64(simRes.HopsTotal), wait
		tr.timed("netsim.routing", ds.ID, kindInner, func() { netsim.BuildNextHopTables(cfg.Host) })
		refCfg, _, _ := watched(cfg)
		tr.timed("ref.single_process", ds.ID, kindRef, func() {
			_, err = netsim.RunContext(ctx, refCfg, simWorkload(&req, tree))
		})
		if err != nil {
			return err
		}
		dist = &server.DistInfo{Partitions: req.Partitions, BoundaryMessages: st.BoundaryMessages,
			BoundaryBytes: st.BoundaryBytes}
		for _, ps := range st.Partitions {
			dist.Shards = append(dist.Shards, server.DistShardInfo{Vertices: ps.Vertices, Links: ps.Links,
				Hops: ps.Hops, BoundaryOut: ps.BoundaryOut})
		}
	} else {
		ns := tr.timed("netsim.run", root.ID, "", func() {
			simRes, err = netsim.RunContext(ctx, runCfg, simWorkload(&req, tree))
		})
		if err != nil {
			return err
		}
		ns.Count = int64(simRes.HopsTotal)
		tr.timed("netsim.routing", ns.ID, kindInner, func() { netsim.BuildNextHopTables(cfg.Host) })
		if hub != nil {
			ns.Events = int64(hub.Published())
			tr.timed("ref.unwatched", ns.ID, kindRef, func() {
				_, err = netsim.RunContext(ctx, cfg, simWorkload(&req, tree))
			})
			if err != nil {
				return err
			}
		}
	}

	resp := server.SimulateResponse{Embed: item, Sim: server.SimCounters{
		Cycles: simRes.Cycles, Delivered: simRes.Delivered, HopsTotal: simRes.HopsTotal,
		MaxLinkLoad: simRes.MaxLinkLoad, MaxQueue: simRes.MaxQueue,
		LatencyP50: simRes.LatencyP50, LatencyP99: simRes.LatencyP99, LatencyMax: simRes.LatencyMax,
		Drops: simRes.Drops, Corruptions: simRes.Corruptions, Retransmits: simRes.Retransmits,
		Reroutes: simRes.Reroutes, Unreachable: simRes.Unreachable,
	}, Dist: dist}
	if req.Baseline {
		var ideal netsim.Result
		tr.timed("netsim.baseline", root.ID, "", func() {
			icfg := netsim.Config{Host: tree.AsGraph(), Place: netsim.IdentityPlacement(tree.N()), MaxCycles: req.MaxCycles}
			ideal, err = netsim.RunContext(ctx, icfg, simWorkload(&req, tree))
		})
		if err != nil {
			return err
		}
		resp.IdealCycles = ideal.Cycles
		if ideal.Cycles > 0 {
			resp.Slowdown = float64(simRes.Cycles) / float64(ideal.Cycles)
		}
	}

	var body []byte
	if hub != nil {
		tr.timed("server.encode", root.ID, "", func() {
			body, err = json.Marshal(resp)
			rec.Publish(telemetry.Event{TraceEvent: netsim.TraceEvent{Type: telemetry.EventResult}, Payload: body})
		})
		if err != nil {
			return err
		}
		hub.Close()
		if err := rp.wire(root, hub); err != nil {
			return err
		}
	} else {
		tr.timed("server.encode", root.ID, "", func() { body = encodeBody(resp) })
	}
	var got simulateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	return rp.chk.simulate(r, got)
}

// wire encodes every retained event of a finished session as the NDJSON
// writer does and decodes each line as a watching client does.
func (rp *replayer) wire(root *span, hub *telemetry.Hub) error {
	sub := hub.Subscribe(0)
	defer sub.Close()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	var n int64
	var err error
	ws := rp.tr.timed("telemetry.wire", root.ID, "", func() {
		for {
			events, _, ok, nerr := sub.Next(rp.ctx, 256)
			if !ok || nerr != nil {
				return
			}
			for k := range events {
				buf.Reset()
				if err = enc.Encode(&events[k]); err == nil {
					_, err = telemetry.DecodeEvent(buf.Bytes())
				}
				if err != nil {
					return
				}
				n++
			}
		}
	})
	ws.Count = n
	return err
}

package main

// client.go drives the server over HTTP: nproc closed-loop clients, each
// with one keep-alive connection, send the workload sequence for the timed
// run.  The loop is closed because this API's callers wait for each reply.
// Latency runs from the send to the last byte read (for streams, the
// final result line); the answer check runs after the clock stops.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// loadStats is what the clients saw.  Every attempted request ends as ok
// or failed (transport error, non-200 status, or wrong answer).
type loadStats struct {
	attempted, ok, failed int
	codes                 map[string]int // "route status" -> responses
	latencies             []float64      // ms, ok requests
	done                  []float64      // s from the start of the run to each ok request's end
	firstEvent            []float64      // ms from send to a stream's first line
	engineTrees           int            // trees sent to engine-backed hosts, answered 200
	streams               int            // stream=1 requests answered 200
	sessions              map[string]uint64
	dropped               uint64 // events the streams' dropped markers reported lost
	errors                []string
	origin                time.Time // start of the run
	elapsed               time.Duration
}

func newLoadStats() *loadStats {
	return &loadStats{codes: map[string]int{}, sessions: map[string]uint64{}}
}

func (s *loadStats) merge(o *loadStats) {
	s.attempted += o.attempted
	s.ok += o.ok
	s.failed += o.failed
	for k, v := range o.codes {
		s.codes[k] += v
	}
	s.latencies = append(s.latencies, o.latencies...)
	s.done = append(s.done, o.done...)
	s.firstEvent = append(s.firstEvent, o.firstEvent...)
	s.engineTrees += o.engineTrees
	s.streams += o.streams
	for k, v := range o.sessions {
		s.sessions[k] = v
	}
	s.dropped += o.dropped
	s.errors = append(s.errors, o.errors...)
}

func (s *loadStats) fail(format string, args ...any) {
	s.failed++
	if len(s.errors) < 10 {
		s.errors = append(s.errors, fmt.Sprintf(format, args...))
	}
}

// newHTTPClient returns a client holding exactly one keep-alive connection.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// send issues one request, checks the answer and records the outcome.
func send(ctx context.Context, hc *http.Client, base string, r request, chk *checker, st *loadStats) {
	st.attempted++
	url := base + r.route
	if r.stream {
		url += "?stream=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(r.body))
	if err != nil {
		st.fail("build request: %v", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		st.fail("%s: %v", r.route, err)
		return
	}
	defer resp.Body.Close()
	st.codes[fmt.Sprintf("%s %d", r.route, resp.StatusCode)]++
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort, for the report
		st.fail("%s: %s: %s", r.route, resp.Status, bytes.TrimSpace(msg))
		return
	}
	st.engineTrees += r.engineTrees
	if r.stream {
		sendStream(start, resp, r, chk, st)
		return
	}
	body, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	if err != nil {
		st.fail("%s: read body: %v", r.route, err)
		return
	}
	if r.route == routeEmbed {
		err = chk.embedBody(r, body)
	} else {
		err = chk.simulateBody(r, body)
	}
	if err != nil {
		st.fail("%s: wrong answer: %v", r.route, err)
		return
	}
	st.record(lat)
}

// record counts an ok request that took lat.
func (s *loadStats) record(lat time.Duration) {
	s.ok++
	s.latencies = append(s.latencies, ms(lat))
	s.done = append(s.done, time.Since(s.origin).Seconds())
}

// sendStream reads a stream=1 session to its end, decoding every line.
func sendStream(start time.Time, resp *http.Response, r request, chk *checker, st *loadStats) {
	ss := streamState{session: resp.Header.Get("X-Session-Id")}
	st.streams++
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var lat time.Duration
	first := true
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			if first {
				st.firstEvent = append(st.firstEvent, ms(time.Since(start)))
				first = false
			}
			if lerr := ss.line(line); lerr != nil {
				st.fail("stream %s: %v", ss.session, lerr)
				return
			}
			if ss.result != nil && lat == 0 {
				lat = time.Since(start)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			st.fail("stream %s: read: %v", ss.session, err)
			return
		}
	}
	res, err := ss.finish()
	if err == nil {
		err = chk.simulate(r, res)
	}
	st.sessions[ss.session] = ss.published()
	st.dropped += ss.dropped
	if err != nil {
		st.fail("stream %s: wrong answer: %v", ss.session, err)
		return
	}
	st.record(lat)
}

// runLoad runs the closed loop from start for dur with one goroutine per
// client and returns the merged statistics.  Requests are taken from the
// sequence in order; a client stops sending once dur has passed.
func runLoad(ctx context.Context, base string, clients int, w *workload, chk *checker, start time.Time, dur time.Duration) *loadStats {
	var next atomic.Int64
	var wg sync.WaitGroup
	per := make([]*loadStats, clients)
	for c := 0; c < clients; c++ {
		per[c] = newLoadStats()
		per[c].origin = start
		wg.Add(1)
		go func(st *loadStats) {
			defer wg.Done()
			hc := newHTTPClient()
			defer hc.CloseIdleConnections()
			for time.Since(start) < dur && ctx.Err() == nil {
				send(ctx, hc, base, w.at(int(next.Add(1)-1)), chk, st)
			}
		}(per[c])
	}
	wg.Wait()
	total := newLoadStats()
	total.origin, total.elapsed = start, time.Since(start)
	for _, st := range per {
		total.merge(st)
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

package main

// smoke.go is the `-smoke` self-check behind `make serve-smoke` and the
// CI serve job: it boots a real server on an ephemeral port and walks
// the serve path end to end — health, a valid embed with the Theorem 1
// bounds intact over the wire, and non-empty Prometheus metrics.  Any
// violation exits non-zero.  Load shedding and the graceful drain depend
// on timing end to end, so the server tests check them instead:
// TestAdmissionSheddingHTTP holds the admission slot itself and
// TestGracefulShutdownDrains checks the drain against the server's own
// request counter.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"xtreesim/internal/server"
)

func runSmoke() error {
	if err := smokeServePath(); err != nil {
		return fmt.Errorf("serve path: %w", err)
	}
	return nil
}

func postEmbed(url string, body interface{}) (*http.Response, []byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(url+"/v1/embed", "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data, err
}

// smokeServePath: healthz, one valid embed with the paper's bounds, and
// a metrics scrape that actually contains the serving metrics.
func smokeServePath() error {
	s := server.New(server.Config{Version: "smoke"})
	if err := s.Start(); err != nil {
		return err
	}
	defer shutdown(s)
	url := s.URL()

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		return err
	}
	var hr server.HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&hr)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("healthz decode: %w", err)
	}
	if resp.StatusCode != 200 || hr.Status != "ok" {
		return fmt.Errorf("healthz: status=%d body=%+v", resp.StatusCode, hr)
	}

	resp, data, err := postEmbed(url, server.EmbedRequest{
		Tree: &server.TreeSpec{Family: "random", N: 1008, Seed: server.Seed(42)},
	})
	if err != nil {
		return err
	}
	if resp.StatusCode != 200 {
		return fmt.Errorf("embed: status %d: %s", resp.StatusCode, data)
	}
	var er server.EmbedResponse
	if err := json.Unmarshal(data, &er); err != nil {
		return fmt.Errorf("embed decode: %w", err)
	}
	if len(er.Items) != 1 || er.Items[0].Error != "" {
		return fmt.Errorf("embed items: %s", data)
	}
	if d, l := er.Items[0].Dilation, er.Items[0].MaxLoad; d > 3 || l > 16 {
		return fmt.Errorf("Theorem 1 bounds violated over the wire: dilation=%d load=%d", d, l)
	}

	resp, err = http.Get(url + "/metrics")
	if err != nil {
		return err
	}
	mdata, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(mdata)
	if len(strings.TrimSpace(text)) == 0 {
		return fmt.Errorf("metrics: empty exposition")
	}
	for _, want := range []string{
		"xtreesim_http_requests_total",
		"xtreesim_http_request_duration_seconds_bucket",
		"xtreesim_http_shed_total",
		"xtreesim_engine_cache_misses_total",
	} {
		if !strings.Contains(text, want) {
			return fmt.Errorf("metrics: missing %q", want)
		}
	}
	return nil
}

func shutdown(s *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}

package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fuzzBound is the largest dilation and load a theorem allows on a host.
type fuzzBound struct{ dilation, load int }

var fuzzBounds = map[string]fuzzBound{
	HostXTree:     {dilation: 3, load: 16}, // Theorem 1
	HostHypercube: {dilation: 4, load: 16}, // Theorem 3
	HostUniversal: {dilation: 1, load: 1},  // Theorem 4
}

// injectiveBound is Theorem 2's, for the injective derivation.
var injectiveBound = fuzzBound{dilation: 11, load: 1}

// checkFuzzItem checks a successful embed item against its theorem.
func checkFuzzItem(t *testing.T, body string, it EmbedItem, b fuzzBound) {
	t.Helper()
	if it.Error != "" {
		return
	}
	if it.Dilation > b.dilation || it.MaxLoad < 1 || it.MaxLoad > b.load {
		t.Fatalf("body %q: %s item %d has dilation %d and load %d, theorem allows %d and %d",
			body, it.Host, it.Index, it.Dilation, it.MaxLoad, b.dilation, b.load)
	}
}

// FuzzAPI sends raw /v1/embed and /v1/simulate bodies through the
// server's handler.  No body may produce a 5xx other than 503 or 504,
// and every 200 answer must meet its host's theorem bounds.  The
// per-tree cap (512 nodes) also caps the host height a request may pin;
// without it a pinned height near 30 would ask for gigabytes.
func FuzzAPI(f *testing.F) {
	for _, seed := range []struct {
		simulate bool
		body     string
	}{
		{false, `{"tree":{"family":"random","n":100,"seed":1}}`},
		{false, `{"tree":{"encoded":"((..)(..))"},"host":"hypercube"}`},
		{false, `{"tree":{"family":"complete","n":63,"seed":0},"injective":true}`},
		{false, `{"trees":[{"family":"path","n":40},{"encoded":"(.(..))"}],"host":"universal"}`},
		{false, `{"tree":{"family":"zigzag","n":512,"seed":3},"strict":true,"height":7}`},
		{false, `{"tree":{"family":"random","n":100,"seed":2},"height":58}`},
		{false, `{"tree":{"encoded":"(..))"}}`},
		{false, `{"tree":`},
		{true, `{"tree":{"family":"random","n":60,"seed":4},"workload":"broadcast","baseline":true}`},
		{true, `{"tree":{"family":"bst","n":80,"seed":5},"workload":"divide-conquer","partitions":2,"faults":{"seed":3,"drop_prob":0.05,"max_retries":20}}`},
		{true, `{"tree":{"encoded":"((..)(..))"},"workload":"exchange","rounds":2}`},
		{true, `{"workload":"scan"}`},
	} {
		f.Add(seed.simulate, seed.body)
	}
	s := New(Config{MaxTreeNodes: 512, RequestTimeout: 2 * time.Second})
	f.Cleanup(s.eng.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, simulate bool, body string) {
		path := "/v1/embed"
		if simulate {
			path = "/v1/simulate"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		switch code := rec.Code; {
		case code >= 500 && code != http.StatusServiceUnavailable && code != http.StatusGatewayTimeout:
			t.Fatalf("%s body %q: status %d: %s", path, body, code, rec.Body.Bytes())
		case code != http.StatusOK:
			return
		}
		if simulate {
			var resp SimulateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("body %q: undecodable 200 answer: %v", body, err)
			}
			checkFuzzItem(t, body, resp.Embed, fuzzBounds[HostXTree])
			return
		}
		var resp EmbedResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("body %q: undecodable 200 answer: %v", body, err)
		}
		for _, it := range resp.Items {
			b, ok := fuzzBounds[it.Host]
			if it.Error == "" && !ok {
				t.Fatalf("body %q: item %d on unknown host %q", body, it.Index, it.Host)
			}
			checkFuzzItem(t, body, it, b)
			if it.Injective != nil {
				checkFuzzItem(t, body, *it.Injective, injectiveBound)
			}
		}
	})
}

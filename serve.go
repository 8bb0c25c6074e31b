package xtreesim

// serve.go surfaces the embedding-as-a-service subsystem
// (internal/server): a stdlib-only HTTP front end over the shared batch
// engine with admission control, load shedding, per-request deadlines
// and a Prometheus /metrics endpoint.  `cmd/xtree-serve` is the
// production binary; this façade is for embedding the server in another
// process (or an httptest harness).

import "xtreesim/internal/server"

type (
	// Server is one serving process over the JSON API
	// (POST /v1/embed, POST /v1/simulate, GET /healthz, GET /metrics).
	// Create with NewServer, boot with Start, stop with Shutdown.
	Server = server.Server
	// ServerConfig configures NewServer; the zero value serves on an
	// ephemeral localhost port with one admission slot per CPU and no
	// wait queue, so it sheds whenever every slot is busy (set MaxQueue
	// to queue; −1 means 4× the slots).
	ServerConfig = server.Config
)

// NewServer builds a server (not yet listening):
//
//	srv := xtreesim.NewServer(xtreesim.ServerConfig{Addr: ":8080"})
//	if err := srv.Start(); err != nil { ... }
//	defer srv.Shutdown(ctx)
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

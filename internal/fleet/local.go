package fleet

import (
	"context"
	"log/slog"
	"net/http"
	"os/exec"

	"pythia/internal/policy"
	"pythia/internal/results"
	"pythia/internal/serve"
)

// LocalOptions parameterizes a local cluster: one stateless frontend
// (serve in Dispatch mode) plus a coordinator keeping a fixed number of
// worker processes alive over a shared journal.
type LocalOptions struct {
	Store    *results.Store
	Policies *policy.Store
	// JournalDir is the shared coordination substrate (required).
	JournalDir string
	// QueueDepth bounds the fleet-wide open-job backlog at admission.
	QueueDepth int

	// WorkerCommand builds one worker process's command (required) —
	// typically the calling binary re-exec'd in its worker mode.
	WorkerCommand func() *exec.Cmd

	// Workers is the fleet size: see Config.Workers.
	Workers int

	Logger *slog.Logger
}

// Local is a running local cluster.
type Local struct {
	Server *serve.Server
	Coord  *Coordinator
}

// StartLocal boots the frontend and the coordinator. The returned
// Local's Handler serves the full v1 API (fleet status included);
// Shutdown stops admission, the coordinator, and the workers.
func StartLocal(opt LocalOptions) (*Local, error) {
	coord, err := Start(Config{
		JournalDir:    opt.JournalDir,
		WorkerCommand: opt.WorkerCommand,
		Workers:       opt.Workers,
		Logger:        opt.Logger,
	})
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		Store:       opt.Store,
		Policies:    opt.Policies,
		QueueDepth:  opt.QueueDepth,
		JournalDir:  opt.JournalDir,
		Dispatch:    true,
		FleetStatus: coord.Status,
		Logger:      opt.Logger,
	})
	if err != nil {
		coord.Close()
		return nil, err
	}
	return &Local{Server: srv, Coord: coord}, nil
}

// Handler returns the frontend's HTTP routes.
func (l *Local) Handler() http.Handler { return l.Server.Handler() }

// Shutdown winds the cluster down: frontend admission first (no new
// jobs), then the coordinator and its workers (gracefully — SIGTERM'd
// workers release claims, so journaled jobs survive for the next boot).
func (l *Local) Shutdown(ctx context.Context) {
	l.Server.Shutdown(ctx)
	l.Coord.Close()
}

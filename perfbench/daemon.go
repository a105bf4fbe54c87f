package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/persist"
	"repro/sailor"
)

// daemon is one incarnation of the planning service, composed exactly as
// cmd/sailor-serve composes a durable daemon: persist.Open → Restore →
// Rotate → SetRecorder → NewServer, with the daemon's defaults (fsync
// "always", speculation on, Workers and MaxConcurrent = NumCPU).
type daemon struct {
	srv       *sailor.Server
	svc       *sailor.Service
	store     *persist.Store
	recovered *persist.Recovered
	rotate    time.Duration // the boot Rotate
}

// bootDaemon starts a daemon over dir. cfg carries the ablation knobs and,
// on a first boot, the fleet ledger; a dir holding state recovers it.
func bootDaemon(dir string, cfg sailor.ServiceConfig, p *probes) (*daemon, error) {
	store, recovered, err := persist.Open(dir, persist.Config{Fsync: persist.FsyncAlways, WrapJournal: p.wrapJournal})
	if err != nil {
		return nil, fmt.Errorf("open data dir: %w", err)
	}
	svc := sailor.NewService(cfg)
	if recovered != nil {
		if err := svc.Restore(recovered); err != nil {
			store.Close()
			return nil, fmt.Errorf("restore: %w", err)
		}
	}
	t1 := time.Now()
	if err := store.Rotate(svc.PersistState()); err != nil {
		store.Close()
		return nil, fmt.Errorf("rotate: %w", err)
	}
	rotate := time.Since(t1)
	svc.SetRecorder(&recorder{Store: store, p: p})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	srv := sailor.NewServer(listener{Listener: lis, p: p}, svc)
	go srv.Serve()
	return &daemon{srv: srv, svc: svc, store: store, recovered: recovered, rotate: rotate}, nil
}

func (d *daemon) addr() string { return d.srv.Addr().String() }

// close shuts the daemon down gracefully: drain, final snapshot, close.
func (d *daemon) close() error {
	d.srv.Close()
	d.svc.Quiesce()
	if err := d.store.Err(); err != nil {
		d.store.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := d.store.Rotate(d.svc.PersistState()); err != nil {
		d.store.Close()
		return fmt.Errorf("final snapshot: %w", err)
	}
	return d.store.Close()
}

// crash stops the daemon the way kill -9 leaves the disk: the journal is
// closed with no final snapshot (the shape the crash-recovery tests use).
// In-flight requests drain first so the process can go on to recover.
func (d *daemon) crash() error {
	d.srv.Close()
	d.svc.Quiesce()
	if err := d.store.Err(); err != nil {
		d.store.Close()
		return fmt.Errorf("journal: %w", err)
	}
	return d.store.Close()
}

// client is one benchmark connection to a daemon: a sailor.Client with
// retries off (a shed or failed request counts as failed, never hidden by
// a retry), dialled through the probed conn wrapper.
type client struct {
	*sailor.Client
	idx  int
	slot *tagSlot
}

func dialClient(addr string, idx int, p *probes) (*client, error) {
	slot := &tagSlot{}
	c, err := sailor.DialWith(addr, sailor.DialConfig{
		Timeout: 10 * time.Second,
		Retry:   sailor.RetryPolicy{MaxAttempts: 1},
		Dialer:  p.dialer(slot),
	})
	if err != nil {
		return nil, err
	}
	return &client{Client: c, idx: idx, slot: slot}, nil
}

package vtab

// Satellite race coverage for the snapshot-consistency fix: every V$
// snapshot is taken under the owning structure's own lock and is immutable
// afterward. This test hammers V$SESSION and V$STMT reads — direct and
// through the polygen engine — while sessions churn and queries run. Its
// value is under -race (the CI soak step runs the package with it); the
// assertions here are the cheap consistency checks that stay valid
// mid-churn.

import (
	"sync"
	"testing"

	"repro/internal/lqp"
	"repro/internal/mediator"
	"repro/internal/wire"
)

func TestSessionChurnSnapshotRace(t *testing.T) {
	h := newHarness(t, mediator.Config{Federation: "churn"})

	const (
		churners          = 3
		sessionsPerChurn  = 15
		queriesPerSession = 2
	)
	done := make(chan struct{})
	var churnWG, hammerWG sync.WaitGroup

	for c := 0; c < churners; c++ {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for s := 0; s < sessionsPerChurn; s++ {
				info, err := h.svc.OpenSession(wire.SessionOptions{})
				if err != nil {
					t.Errorf("OpenSession: %v", err)
					return
				}
				for i := 0; i < queriesPerSession; i++ {
					q := harnessQueries()[(s+i)%len(harnessQueries())]
					if _, err := h.svc.Query(info.ID, q, true); err != nil {
						t.Errorf("Query: %v", err)
						return
					}
				}
				if err := h.svc.CloseSession(info.ID); err != nil {
					t.Errorf("CloseSession: %v", err)
					return
				}
			}
		}()
	}

	// Direct V$ hammering: raw LQP scans racing the churn above.
	hammerWG.Add(1)
	go func() {
		defer hammerWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, table := range []string{"V$SESSION", "V$STMT"} {
				if _, err := drainOpen(h.vt.Open(lqp.Retrieve(table))); err != nil {
					t.Errorf("Open(%s): %v", table, err)
					return
				}
			}
		}
	}()

	// Engine-path hammering: the same snapshots reached through the full
	// translate/optimize/execute pipeline, sessionless so the churned
	// session table is observed, never touched.
	hammerWG.Add(1)
	go func() {
		defer hammerWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := h.svc.Query("", `(V$STMT [SID = SID] V$SESSION) [STMT_ID, POLICY]`, true); err != nil {
				t.Errorf("engine-path V$ join: %v", err)
				return
			}
		}
	}()

	churnWG.Wait()
	close(done)
	hammerWG.Wait()

	if n := h.svc.SessionCount(); n != 0 {
		t.Errorf("after churn %d sessions remain open, want 0", n)
	}
}

package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/device"
)

// TestFeedbackAfterReleaseRefused: a released home refuses dispatch
// feedback like any other write. A late feedback post must not recreate
// the home this hub handed away.
func TestFeedbackAfterReleaseRefused(t *testing.T) {
	h := newTestHub(t, WithShards(1))
	seedHome(t, h, "h")
	if err := h.SealHome("h"); err != nil {
		t.Fatal(err)
	}
	if err := h.ReleaseHome("h"); err != nil {
		t.Fatal(err)
	}
	err := h.PostEventFeedback("h", device.TypeThermometer, "thermometer", "living room",
		map[string]string{"temperature": "31"})
	if !errors.Is(err, ErrHomeSealed) {
		t.Fatalf("PostEventFeedback on a released home: %v, want ErrHomeSealed", err)
	}
	if err := h.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if homes, err := h.Homes(); err != nil || len(homes) != 0 {
		t.Fatalf("resident homes after the release = %v, %v; want none", homes, err)
	}
}

// TestPlacementTransitions walks one home through every transition of the
// placement table: seal claims it once, unseal restores the entry the seal
// replaced, release refuses writes, and import adopts the home again.
func TestPlacementTransitions(t *testing.T) {
	src, dst := newTestHub(t, WithShards(2)), newTestHub(t, WithShards(2))
	seedHome(t, src, "h")
	if err := src.SealHome("h"); err != nil {
		t.Fatal(err)
	}
	if err := src.SealHome("h"); !errors.Is(err, ErrMigrationInFlight) {
		t.Fatalf("second seal: %v, want ErrMigrationInFlight", err)
	}
	if err := src.SealHome("absent"); !errors.Is(err, ErrNoHome) {
		t.Fatalf("seal of an absent home: %v, want ErrNoHome", err)
	}
	exp, err := src.ExportHome("h")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.ReleaseHomeTo("h", "dst:1"); err != nil {
		t.Fatal(err)
	}
	if p := src.Placement("h"); p.State != PlaceReleased || p.Owner != "dst:1" {
		t.Fatalf("source placement after release = %+v, want released to dst:1", p)
	}
	if err := src.RegisterUser("h", "alan"); !errors.Is(err, ErrHomeSealed) {
		t.Fatalf("mutation of a released home: %v, want ErrHomeSealed", err)
	}

	if err := dst.ImportHome(exp); err != nil {
		t.Fatal(err)
	}
	if p := dst.Placement("h"); p.State != PlaceAdopted {
		t.Fatalf("target placement after import = %+v, want adopted", p)
	}
	// An aborted migration of an adopted home leaves it adopted.
	if err := dst.SealHome("h"); err != nil {
		t.Fatal(err)
	}
	if n := dst.SealedHomes(); n != 1 {
		t.Fatalf("sealed homes = %d, want 1", n)
	}
	dst.UnsealHome("h")
	if p := dst.Placement("h"); p.State != PlaceAdopted || dst.SealedHomes() != 0 {
		t.Fatalf("placement after unseal = %+v (sealed %d), want adopted", p, dst.SealedHomes())
	}
	postTemp(t, dst, "h", "31")

	// Importing a released home back re-admits its writes.
	back, err := dst.ExportHome("h")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.ImportHome(back); err != nil {
		t.Fatal(err)
	}
	if err := src.RegisterUser("h", "alan"); err != nil {
		t.Fatalf("mutation after the home came back: %v", err)
	}
}

// TestPostRacingSealLandsInExportOrIsRefused: PostEventSync loops race
// SealHome → Quiesce → ExportHome. Admission and the seal share the
// mailbox's critical section, so every post is either refused or in the
// export, and no refused post is.
func TestPostRacingSealLandsInExportOrIsRefused(t *testing.T) {
	h := newTestHub(t, WithShards(2))
	seedHome(t, h, "h")
	const posters = 4
	var (
		wg       sync.WaitGroup
		total    atomic.Int64
		accepted [posters][]string
		refused  [posters]string
	)
	for g := 0; g < posters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each post writes its own room, so the export shows each one.
			for i := 0; ; i++ {
				room := fmt.Sprintf("room %d-%d", g, i)
				err := h.PostEventSync("h", device.TypeThermometer, "thermometer", room,
					map[string]string{"temperature": "20"})
				if errors.Is(err, ErrHomeSealed) {
					refused[g] = room
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				accepted[g] = append(accepted[g], room)
				total.Add(1)
			}
		}(g)
	}
	for total.Load() < 4*posters { // let the posters get going so the seal lands among them
		runtime.Gosched()
	}
	if err := h.SealHome("h"); err != nil {
		t.Fatal(err)
	}
	if err := h.Quiesce(); err != nil {
		t.Fatal(err)
	}
	exp, err := h.ExportHome("h")
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for g := 0; g < posters; g++ {
		for _, room := range accepted[g] {
			if _, ok := exp.State.Numbers[room+"/temperature"]; !ok {
				t.Errorf("accepted post to %q missing from the export", room)
			}
		}
		if _, ok := exp.State.Numbers[refused[g]+"/temperature"]; refused[g] == "" || ok {
			t.Errorf("poster %d: refused post %q is in the export (%v) or never came", g, refused[g], ok)
		}
	}
}

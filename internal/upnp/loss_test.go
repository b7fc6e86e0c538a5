package upnp

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// isMSearch and isSearchResponse classify a datagram the loss model sees.
func isMSearch(p []byte) bool        { return bytes.HasPrefix(p, []byte(methodMSearch)) }
func isSearchResponse(p []byte) bool { return bytes.HasPrefix(p, []byte(statusResponse)) }
func isNotify(p []byte) bool         { return bytes.HasPrefix(p, []byte(methodNotify)) }

// TestFindResendsLostSearch: the lookup's first M-SEARCH is lost. The
// control point repeats it within the window and finds the device. Alive
// announcements are dropped too, so the lookup starts cold.
func TestFindResendsLostSearch(t *testing.T) {
	network, host, cp := newHostCP(t)
	var mu sync.Mutex
	searches := 0
	network.SetDrop(func(p []byte) bool {
		mu.Lock()
		defer mu.Unlock()
		if isMSearch(p) {
			searches++
			return searches == 1
		}
		return isNotify(p)
	})
	for i := 0; i < 5; i++ {
		if err := host.Publish(newLight(i)); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := cp.FindByName("light 3", 2*time.Second)
	if err != nil {
		t.Fatalf("FindByName after a lost M-SEARCH: %v", err)
	}
	if rd.UDN != "uuid:light-3" {
		t.Errorf("UDN = %q", rd.UDN)
	}
	mu.Lock()
	defer mu.Unlock()
	if searches < 2 {
		t.Errorf("sent %d M-SEARCHes, want the lost one repeated", searches)
	}
}

// TestFindUnderSeededLoss: a seeded loss model drops the first copy of
// about half the distinct datagrams (searches, responses, announcements)
// and delivers every repeat. Every cold lookup must still succeed, which
// takes a repeated search whenever the search or the one response naming
// the device was lost.
func TestFindUnderSeededLoss(t *testing.T) {
	network, host, cp := newHostCP(t)
	rng := rand.New(rand.NewSource(8))
	var mu sync.Mutex
	seen := map[string]bool{}
	dropped := 0
	network.SetDrop(func(p []byte) bool {
		mu.Lock()
		defer mu.Unlock()
		if seen[string(p)] {
			return false
		}
		seen[string(p)] = true
		if rng.Intn(2) == 0 {
			dropped++
			return true
		}
		return false
	})
	const n = 80
	for i := 0; i < n; i++ {
		if err := host.Publish(newLight(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 10 {
		cp.Forget(fmt.Sprintf("uuid:light-%d", i))
		if _, err := cp.FindByName(fmt.Sprintf("light %d", i), 3*time.Second); err != nil {
			t.Fatalf("cold lookup of light %d under loss: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if dropped == 0 {
		t.Fatal("the loss model dropped nothing")
	}
}

// TestSearchResponsesPaced: a host with more devices than one burst answers
// one M-SEARCH in bursts of at most searchBurst responses, at least
// searchPause apart, inside the search's MX window, with one response per
// device.
func TestSearchResponsesPaced(t *testing.T) {
	network, host, cp := newHostCP(t)
	var mu sync.Mutex
	var sent []time.Time
	usns := map[string]bool{}
	network.SetDrop(func(p []byte) bool {
		if isSearchResponse(p) {
			msg, err := parseSSDP(p)
			mu.Lock()
			sent = append(sent, time.Now())
			if err == nil {
				usns[msg.header("USN")] = true
			}
			mu.Unlock()
		}
		return isNotify(p) // keep the control point's cache cold
	})
	const n = 2*searchBurst + 10
	for i := 0; i < n; i++ {
		if err := host.Publish(newLight(i)); err != nil {
			t.Fatal(err)
		}
	}
	cp.Search(TargetAll, 300*time.Millisecond) // exactly one M-SEARCH
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		got := len(sent)
		mu.Unlock()
		if got >= n || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(sent) != n || len(usns) != n {
		t.Fatalf("%d responses for %d distinct devices, want one for each of %d", len(sent), len(usns), n)
	}
	// Split the sends at gaps of half a pause: a pause always splits, a
	// preempted burst may split further, so each group is at most a burst.
	groups, size := 1, 1
	for i := 1; i < len(sent); i++ {
		if sent[i].Sub(sent[i-1]) >= searchPause/2 {
			groups, size = groups+1, 0
		}
		if size++; size > searchBurst {
			t.Fatalf("more than %d responses went out back to back", searchBurst)
		}
	}
	if want := (n + searchBurst - 1) / searchBurst; groups < want {
		t.Fatalf("responses went out in %d bursts, want at least %d", groups, want)
	}
	if spread := sent[len(sent)-1].Sub(sent[0]); spread > time.Second {
		t.Fatalf("responses spread over %v, past the search's MX of 1 s", spread)
	}
}

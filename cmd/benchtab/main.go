// Command benchtab regenerates the paper's evaluation tables (Sect. 5) with
// parameter sweeps around the published operating points.
//
//	benchtab -exp e1   # device retrieval time vs. number of virtual devices
//	benchtab -exp e2   # same-device extraction + conflict feasibility vs. DB size
//	benchtab -exp all  # both
//
// The paper's numbers (Athlon2200+, JDK 1.5, CyberLink UPnP, C simplex):
// retrieval <= 10 ms at 50 devices; extraction <= 10 ms at 10,000 rules;
// feasibility of 100 x 4 inequalities ~= 0.2 ms. benchtab reports the same
// operations on this implementation.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/registry"
	"repro/internal/simplex"
	"repro/internal/upnp"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: e1, e2 or all")
	trials := flag.Int("trials", 15, "trials per configuration (median reported)")
	flag.Parse()

	switch *exp {
	case "e1":
		runE1(*trials)
	case "e2":
		runE2(*trials)
	case "all":
		runE1(*trials)
		fmt.Println()
		runE2(*trials)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want e1, e2 or all)\n", *exp)
		os.Exit(1)
	}
}

func median(samples []time.Duration) time.Duration {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}

// runE1 measures device retrieval by name and by service over real UDP/HTTP
// for a sweep of device counts (the paper's point: 50 devices, <= 10 ms).
func runE1(trials int) {
	fmt.Println("E1 — Time for retrieving devices (paper: <= 10 ms at N=50)")
	fmt.Println("N devices | by name (cold) | by service (cold) | by name (cached)")
	fmt.Println("----------|----------------|-------------------|-----------------")
	for _, n := range []int{10, 25, 50, 100, 200} {
		byName, bySvc, warm, err := measureRetrieval(n, trials)
		if err != nil {
			fmt.Fprintf(os.Stderr, "E1 n=%d: %v\n", n, err)
			os.Exit(1)
		}
		fmt.Printf("%9d | %14s | %17s | %15s\n", n, byName, bySvc, warm)
	}
}

const uniqueSvc = "urn:cadel-home:service:Unique:1"

func measureRetrieval(n, trials int) (byName, byService, warm time.Duration, err error) {
	network := upnp.NewNetwork()
	host, err := upnp.NewDeviceHost(network)
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() { _ = host.Close() }()
	var targetUDN, targetName string
	for i := 0; i < n; i++ {
		unit := device.NewLight(fmt.Sprintf("bench light %d", i), i, "hall")
		if i == n/2 {
			unit.Dev.Services = append(unit.Dev.Services,
				upnp.NewService("urn:cadel-home:serviceId:Unique", uniqueSvc))
			targetUDN, targetName = unit.Dev.UDN, unit.Dev.FriendlyName
		}
		if err := unit.Publish(host); err != nil {
			return 0, 0, 0, err
		}
	}
	cp, err := upnp.NewControlPoint(network)
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() { _ = cp.Close() }()
	deadline := time.Now().Add(10 * time.Second)
	for len(cp.Devices()) < n && time.Now().Before(deadline) {
		cp.Search(upnp.TargetAll, 100*time.Millisecond)
	}
	if len(cp.Devices()) < n {
		return 0, 0, 0, fmt.Errorf("primed only %d/%d devices", len(cp.Devices()), n)
	}

	nameSamples := make([]time.Duration, 0, trials)
	svcSamples := make([]time.Duration, 0, trials)
	warmSamples := make([]time.Duration, 0, trials)
	for i := 0; i < trials; i++ {
		cp.Forget(targetUDN)
		start := time.Now()
		if _, err := cp.FindByName(targetName, 5*time.Second); err != nil {
			return 0, 0, 0, err
		}
		nameSamples = append(nameSamples, time.Since(start))

		cp.Forget(targetUDN)
		start = time.Now()
		if _, err := cp.FindByService(uniqueSvc, 5*time.Second); err != nil {
			return 0, 0, 0, err
		}
		svcSamples = append(svcSamples, time.Since(start))

		start = time.Now()
		if _, err := cp.FindByName(targetName, 5*time.Second); err != nil {
			return 0, 0, 0, err
		}
		warmSamples = append(warmSamples, time.Since(start))
	}
	return median(nameSamples), median(svcSamples), median(warmSamples), nil
}

// runE2 measures same-device extraction and 100-candidate conflict
// feasibility for a sweep of database sizes (the paper's point: 10,000 rules,
// 100 same-device, extraction <= 10 ms, feasibility ~0.2 ms).
func runE2(trials int) {
	fmt.Println("E2 — Time for detecting conflicting rules (paper: extract <= 10 ms,")
	fmt.Println("     100 x 4-inequality feasibility ~= 0.2 ms, at 10,000 rules)")
	fmt.Println("total rules | same-device | extract (indexed) | extract (scan) | feasibility x100: simplex (paper) | production")
	fmt.Println("------------|-------------|-------------------|----------------|-----------------------------------|-----------")
	for _, total := range []int{1000, 10000, 50000} {
		sameDevice := 100
		db := buildDB(total, sameDevice)
		ref := core.DeviceRef{Name: "air conditioner"}
		newRule := &core.Rule{
			ID: "new", Owner: "newuser", Device: ref,
			Action: core.Action{Verb: "turn-on",
				Settings: map[string]core.Value{"temperature": {IsNumber: true, Number: 19}}},
			Cond: &core.And{Terms: []core.Condition{
				&core.Compare{Var: "temperature", Op: simplex.GT, Value: 26},
				&core.Compare{Var: "humidity", Op: simplex.GT, Value: 65},
			}},
		}

		extract := sample(trials, func() {
			if got := db.SameDevice(ref); len(got) != sameDevice {
				panic(fmt.Sprintf("extracted %d", len(got)))
			}
		})
		scan := sample(trials, func() {
			_ = db.SameDeviceScan(ref)
		})
		candidates := db.SameDevice(ref)
		feasSimplex := sample(trials, func() {
			if _, err := conflict.SimplexFindConflicts(newRule, candidates); err != nil {
				panic(err)
			}
		})
		var checker conflict.Checker
		feas := sample(trials, func() {
			if _, err := checker.FindConflicts(newRule, candidates); err != nil {
				panic(err)
			}
		})
		fmt.Printf("%11d | %11d | %17s | %14s | %33s | %10s\n",
			total, sameDevice, extract, scan, feasSimplex, feas)
	}
}

func sample(trials int, op func()) time.Duration {
	samples := make([]time.Duration, 0, trials)
	for i := 0; i < trials; i++ {
		start := time.Now()
		op()
		samples = append(samples, time.Since(start))
	}
	return median(samples)
}

func buildDB(total, sameDevice int) *registry.DB {
	db := registry.New()
	for i := 0; i < total; i++ {
		name := fmt.Sprintf("device-%d", i%((total/sameDevice)+1))
		if i < sameDevice {
			name = "air conditioner"
		}
		rule := &core.Rule{
			ID:     fmt.Sprintf("r%d", i),
			Owner:  fmt.Sprintf("user%d", i%5),
			Device: core.DeviceRef{Name: name},
			Action: core.Action{Verb: "turn-on",
				Settings: map[string]core.Value{"temperature": {IsNumber: true, Number: float64(20 + i%10)}}},
			Cond: &core.And{Terms: []core.Condition{
				&core.Compare{Var: "temperature", Op: simplex.GT, Value: float64(20 + i%10)},
				&core.Compare{Var: "humidity", Op: simplex.GT, Value: float64(50 + i%20)},
			}},
		}
		if err := db.Add(rule); err != nil {
			panic(err)
		}
	}
	return db
}

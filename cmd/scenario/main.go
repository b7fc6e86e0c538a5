// Command scenario replays the paper's Fig. 1 control scenario — Tom, Alan
// and Emily's conflicting evening in the living room — against the simulated
// home, and prints the resulting control time-chart.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	cadel "repro"
	"repro/internal/figure1"
	"repro/internal/home"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	network := cadel.NewNetwork()
	hm, err := home.New(network, home.DefaultConfig())
	if err != nil {
		return err
	}
	defer func() { _ = hm.Close() }()

	srv, err := cadel.NewServer(network,
		cadel.WithClock(hm.Clock.Now),
		cadel.WithEventTTL(6*time.Hour),
		cadel.WithOnFire(func(f cadel.Fired) { fmt.Println("  " + f.String()) }),
	)
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()

	for _, u := range figure1.Users {
		if err := srv.RegisterUser(u.Name, u.Favorites...); err != nil {
			return err
		}
	}
	if n, err := srv.DiscoverDevices(700 * time.Millisecond); err != nil {
		return err
	} else {
		fmt.Printf("discovered %d virtual UPnP devices\n\n", n)
	}

	fmt.Println("registering rules:")
	for _, s := range figure1.Submissions {
		res, err := srv.Submit(s.Source, s.Owner)
		if err != nil {
			return fmt.Errorf("submit %q: %w", s.Source, err)
		}
		switch {
		case res.DefinedWord != "":
			fmt.Printf("  %-6s defined word %q\n", s.Owner, res.DefinedWord)
		case len(res.Conflicts) > 0:
			fmt.Printf("  %-6s rule %s CONFLICTS with:\n", s.Owner, res.Rule.ID)
			for _, c := range res.Conflicts {
				fmt.Printf("         - %s (owner %s)\n", c.Existing.ID, c.Existing.Owner)
			}
		default:
			fmt.Printf("  %-6s rule %s registered\n", s.Owner, res.Rule.ID)
		}
	}

	fmt.Println("\nsetting priority orders (Fig. 7):")
	for _, p := range figure1.Orders {
		if err := srv.SetPriority(cadel.DeviceRef{Name: p.Device}, p.Users, p.Context); err != nil {
			return err
		}
		fmt.Printf("  %-16s [%s]: %v\n", p.Device, p.Context, p.Users)
	}

	fmt.Println("\n--- 17:00  Tom comes to the living room (*1) ---")
	if err := hm.Arrive("tom", "living room", "return-home"); err != nil {
		return err
	}
	settle()

	fmt.Println("\n--- 17:30  the room turns hot and stuffy ---")
	hm.Clock.Advance(30 * time.Minute)
	if err := hm.SetClimate("living room", 27, 66); err != nil {
		return err
	}
	srv.Tick()
	settle()

	fmt.Println("\n--- 18:00  baseball game on air; Alan got home from work (*2) ---")
	hm.Clock.Set(time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC))
	if err := hm.Step(0); err != nil {
		return err
	}
	if err := hm.Arrive("alan", "living room", "home-from-work"); err != nil {
		return err
	}
	settle()

	fmt.Println("\n--- 19:00  movie on air; Emily got home from shopping (*3) ---")
	hm.Clock.Set(time.Date(2005, 3, 7, 19, 0, 0, 0, time.UTC))
	if err := hm.Step(0); err != nil {
		return err
	}
	if err := hm.Arrive("emily", "living room", "home-from-shopping"); err != nil {
		return err
	}
	settle()

	fmt.Println("\n--- control time-chart (compare with Fig. 1) ---")
	printChart(srv.Log(), os.Stdout)
	return nil
}

// settle gives asynchronous UPnP events time to propagate.
func settle() { time.Sleep(400 * time.Millisecond) }

// printChart renders the executed-action log as a device-by-time chart.
func printChart(log []cadel.Fired, out *os.File) {
	devices := []string{"stereo", "tv", "video recorder", "floor lamp", "fluorescent light", "light", "air conditioner"}
	fmt.Fprintf(out, "%-18s", "device")
	for h := 17; h <= 19; h++ {
		fmt.Fprintf(out, " | %d:00-%d:59", h, h)
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "-------------------------------------------------------------------")
	for _, dev := range devices {
		fmt.Fprintf(out, "%-18s", dev)
		for h := 17; h <= 19; h++ {
			owner := ""
			for _, f := range log {
				if f.Rule.Device.Name != dev {
					continue
				}
				if f.Time.Hour() <= h {
					owner = f.Rule.Owner + ":" + f.Rule.Action.Verb
				}
			}
			fmt.Fprintf(out, " | %-10s", owner)
		}
		fmt.Fprintln(out)
	}
}

// Churn: drive a deployment through join/leave/move/fail events and
// watch the Theorem 1 schedule hold without repair: every sensor that
// joins, inside the window or out, takes its plan slot, and no live
// sensor is ever reassigned. A second act replays churn inside the
// slotted-radio simulator, where the same schedule keeps a perfect
// delivery ratio with zero rescheduling: condition T2 is closed under
// subsets, the paper's quiet superpower for churning networks. Either
// act exits non-zero if the schedule collides.
//
// Run with:
//
//	go run ./examples/churn [-half 60]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"tilingsched/internal/dynamic"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
	"tilingsched/internal/schedule"
	"tilingsched/internal/tiling"
	"tilingsched/internal/wsn"
)

func main() {
	half := flag.Int("half", 60, "window half-side r; [-r, r]² sensors")
	flag.Parse()

	tile := prototile.Cross(2, 1)
	lt, ok := tiling.FindLatticeTiling(tile)
	if !ok {
		log.Fatal("churn: no tiling for the cross")
	}
	plan := schedule.FromLatticeTiling(lt)
	dep := plan.Deployment()
	w := lattice.CenteredWindow(2, *half)
	n := w.Size()
	fmt.Printf("deployment: %d sensors in %s, %d-slot tiling schedule\n\n", n, w, plan.Slots())

	m, err := dynamic.NewMutator(dep, w, plan, dynamic.Options{})
	if err != nil {
		log.Fatalf("churn: %v", err)
	}

	rng := rand.New(rand.NewSource(1))
	randomIn := func() lattice.Point {
		return lattice.Pt(rng.Intn(2**half+1)-*half, rng.Intn(2**half+1)-*half)
	}
	batches := [][]dynamic.Event{
		{{Kind: dynamic.Leave, P: lattice.Pt(0, 0)}},
		{{Kind: dynamic.Fail, P: lattice.Pt(3, -2)}, {Kind: dynamic.Leave, P: lattice.Pt(-5, 5)}},
		{{Kind: dynamic.Join, P: lattice.Pt(0, 0)}},       // rejoin
		{{Kind: dynamic.Join, P: lattice.Pt(*half+1, 0)}}, // grow past the window
		{{Kind: dynamic.Join, P: lattice.Pt(*half+2, 0)}}, // and again, next to it
		{{Kind: dynamic.Move, P: lattice.Pt(1, 1), To: lattice.Pt(*half+1, 1)}},
	}
	for i := 0; i < 6; i++ { // random in-window churn rounds
		p := randomIn()
		if _, err := m.SlotOf(p); err == nil {
			batches = append(batches, []dynamic.Event{{Kind: dynamic.Leave, P: p}})
		} else {
			batches = append(batches, []dynamic.Event{{Kind: dynamic.Join, P: p}})
		}
	}

	fmt.Printf("%-44s %8s %8s %8s\n", "batch", "joined", "left", "alive")
	for _, evs := range batches {
		label := describe(evs)
		d, _, err := m.Apply(evs)
		if err != nil {
			log.Fatalf("churn: %s: %v", label, err)
		}
		fmt.Printf("%-44s %8d %8d %8d\n", label, d.Joined, d.Departed, m.AliveCount())
		m.EachAssignment(func(p lattice.Point, slot int) bool {
			if want, _ := plan.SlotOf(p); slot != want {
				log.Fatalf("churn: %s: %v holds slot %d, plan slot %d", label, p, slot, want)
			}
			return true
		})
	}
	if err := m.Verify(); err != nil {
		log.Fatalf("churn: schedule invalid after churn: %v", err)
	}
	fmt.Printf("\nafter churn: %d live sensors, each on its plan slot (m = %d), verified collision-free\n\n",
		m.AliveCount(), m.Slots())

	// Act two: the same story in the radio simulator. Saturated traffic,
	// scripted churn — the tiling schedule never collides.
	simW := lattice.CenteredWindow(2, 4)
	sim, err := wsn.Run(wsn.Config{
		Window:     simW,
		Deployment: dep,
		Protocol:   wsn.NewScheduleMAC("tiling", plan),
		Traffic:    wsn.Saturated{},
		Slots:      400,
		Seed:       7,
		Churn: []wsn.ChurnEvent{
			{Slot: 50, P: lattice.Pt(0, 0), Up: false},
			{Slot: 50, P: lattice.Pt(2, 2), Up: false},
			{Slot: 120, P: lattice.Pt(0, 0), Up: true},
			{Slot: 200, P: lattice.Pt(-4, 4), Up: false},
			{Slot: 300, P: lattice.Pt(2, 2), Up: true},
		},
	})
	if err != nil {
		log.Fatalf("churn: simulator: %v", err)
	}
	fmt.Printf("simulator (%d sensors, saturated, %d churn events): delivery %.3f, %d failed tx, %d collisions\n",
		simW.Size(), sim.NodesLeft+sim.NodesJoined, sim.DeliveryRatio(), sim.FailedTx, sim.ReceiverCollisions)
	if sim.FailedTx != 0 {
		log.Fatal("churn: the tiling schedule collided under churn — that would falsify Theorem 1's subset closure")
	}
	fmt.Println("the schedule survived churn untouched: no rescheduling, no collisions.")
}

// describe renders a batch for the demo table.
func describe(evs []dynamic.Event) string {
	out := ""
	for i, ev := range evs {
		if i > 0 {
			out += " + "
		}
		out += fmt.Sprintf("%s %s", ev.Kind, ev.P)
		if ev.Kind == dynamic.Move {
			out += fmt.Sprintf("→%s", ev.To)
		}
	}
	if len(out) > 44 {
		out = out[:41] + "..."
	}
	return out
}

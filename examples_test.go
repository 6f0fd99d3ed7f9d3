package whisper_test

import (
	"fmt"
	"time"

	"whisper"
)

// formGroup has founder create a group and invite the members one by
// one. It returns the founder's handle followed by each member's, in
// member order; it panics if a member fails to join.
func formGroup(net *whisper.Network, founder *whisper.Node, name string, members []*whisper.Node) []*whisper.Group {
	g, err := founder.CreateGroup(name)
	if err != nil {
		panic(err)
	}
	groups := make([]*whisper.Group, len(members)+1)
	groups[0] = g
	for i, m := range members {
		inv, err := g.Invite(m.ID())
		if err != nil {
			panic(err)
		}
		m.Join(inv, func(mg *whisper.Group, err error) { groups[i+1] = mg })
		net.Run(5 * time.Second)
	}
	net.Run(time.Minute)
	for i, g := range groups {
		if g == nil {
			panic(fmt.Sprintf("member %d of %s did not join", i, name))
		}
	}
	return groups
}

// Example_churn runs a chat room among the members of a private group
// while two of them crash and a newcomer is invited: the room keeps
// delivering confidential messages through the membership change.
func Example_churn() {
	net, err := whisper.NewNetwork(whisper.Options{Nodes: 40, Seed: 11, GroupCycle: 30 * time.Second})
	if err != nil {
		panic(err)
	}
	net.Run(4 * time.Minute)
	nodes := net.Nodes()
	room := formGroup(net, nodes[0], "free-speech-corner", nodes[1:6])
	received := 0
	for _, g := range room {
		g.OnMessage(func(whisper.Member, []byte) { received++ })
	}
	net.Run(4 * time.Minute)
	fmt.Println("members:", len(room))

	say := func() {
		for _, g := range room {
			if peer, ok := g.GetPeer(); ok {
				g.Send(peer, []byte("hello"), nil)
			}
		}
		net.Run(time.Minute)
	}
	say()
	fmt.Println("delivered before churn:", received > 0)

	// Two members crash; the founder invites a newcomer.
	nodes[1].Leave()
	nodes[2].Leave()
	room = append(room[:1], room[3:]...)
	inv, err := room[0].Invite(nodes[20].ID())
	if err != nil {
		panic(err)
	}
	nodes[20].Join(inv, func(g *whisper.Group, err error) {
		if err == nil {
			g.OnMessage(func(whisper.Member, []byte) { received++ })
			room = append(room, g)
		}
	})
	net.Run(4 * time.Minute)

	before := received
	say()
	fmt.Println("members after churn:", len(room))
	fmt.Println("delivered after churn:", received > before)
	// Output:
	// members: 6
	// delivered before churn: true
	// members after churn: 5
	// delivered after churn: true
}

// Example_privateIndex bootstraps a T-Chord ring inside a private group
// (§V-G) and uses it as a distributed index whose keys, values and
// queries stay hidden from the rest of the network.
func Example_privateIndex() {
	net, err := whisper.NewNetwork(whisper.Options{Nodes: 40, Seed: 13, GroupCycle: 30 * time.Second})
	if err != nil {
		panic(err)
	}
	net.Run(4 * time.Minute)
	nodes := net.Nodes()
	groups := formGroup(net, nodes[0], "dissidents-index", nodes[1:8])
	net.Run(4 * time.Minute)

	var dhts []*whisper.DHT
	for _, g := range groups {
		dhts = append(dhts, g.NewDHT())
	}
	net.Run(8 * time.Minute)

	dhts[0].Put("drop/printing", []byte("locker 17, station west"), func(_ whisper.LookupResult, err error) {
		fmt.Println("stored:", err == nil)
	})
	net.Run(time.Minute)
	dhts[5].Get("drop/printing", func(r whisper.LookupResult, err error) {
		fmt.Printf("found by another member: %v %q\n", err == nil && r.Found, r.Value)
	})
	net.Run(time.Minute)
	// Output:
	// stored: true
	// found by another member: true "locker 17, station west"
}

// Example_multiGroup has one node join several private groups at once.
// Each membership runs its own isolated instance: the node's view of
// one group never shows members of another.
func Example_multiGroup() {
	net, err := whisper.NewNetwork(whisper.Options{Nodes: 40, Seed: 17, GroupCycle: 30 * time.Second})
	if err != nil {
		panic(err)
	}
	net.Run(4 * time.Minute)
	nodes := net.Nodes()
	hub := nodes[30]
	community := map[whisper.NodeID]string{}
	var hubGroups []*whisper.Group
	for i, name := range []string{"chess-club", "film-archive", "mesh-operators"} {
		members := nodes[3+i*4 : 7+i*4]
		community[nodes[i].ID()] = name
		for _, m := range members {
			community[m.ID()] = name
		}
		groups := formGroup(net, nodes[i], name, members)
		inv, err := groups[0].Invite(hub.ID())
		if err != nil {
			panic(err)
		}
		hub.Join(inv, func(g *whisper.Group, err error) {
			if err == nil {
				hubGroups = append(hubGroups, g)
			}
		})
		net.Run(10 * time.Second)
	}
	net.Run(6 * time.Minute)

	for _, g := range hubGroups {
		isolated := len(g.Members()) > 0
		for _, m := range g.Members() {
			if m.ID != hub.ID() && community[m.ID] != g.Name() {
				isolated = false
			}
		}
		fmt.Printf("%s: view holds only its own members: %v\n", g.Name(), isolated)
	}
	// Output:
	// chess-club: view holds only its own members: true
	// film-archive: view holds only its own members: true
	// mesh-operators: view holds only its own members: true
}

// Example_assembly disseminates announcements to a whole private group
// and lets the group count itself by gossip aggregation, with no roster
// ever shared.
func Example_assembly() {
	net, err := whisper.NewNetwork(whisper.Options{Nodes: 40, Seed: 23, GroupCycle: 30 * time.Second})
	if err != nil {
		panic(err)
	}
	net.Run(4 * time.Minute)
	nodes := net.Nodes()
	groups := formGroup(net, nodes[0], "general-assembly", nodes[1:8])
	net.Run(4 * time.Minute)

	heard := 0
	var casts []*whisper.Broadcast
	var ests []*whisper.SizeEstimator
	for _, g := range groups {
		b := g.NewBroadcast()
		b.OnDeliver(func(whisper.NodeID, []byte) { heard++ })
		casts = append(casts, b)
		ests = append(ests, g.NewSizeEstimator(4*time.Minute))
	}
	casts[3].Publish([]byte("vote opens in five minutes"))
	net.Run(90 * time.Second)
	fmt.Printf("announcement reached %d of %d members\n", heard, len(groups))

	net.Run(10 * time.Minute)
	size, _ := ests[5].Estimate()
	fmt.Printf("member-estimated size: %.0f (actual %d)\n", size, len(groups))
	// Output:
	// announcement reached 8 of 8 members
	// member-estimated size: 8 (actual 8)
}

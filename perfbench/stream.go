package main

import (
	"fmt"

	"wlanscale/internal/apps"
	"wlanscale/internal/dot11"
	"wlanscale/internal/epoch"
	"wlanscale/internal/rng"
	"wlanscale/internal/synth"
	"wlanscale/internal/telemetry"
)

// The harvest stream replayed by the live workloads. It is generated
// from the synth fleet at the workload seed, so nothing is downloaded.
// Every seed yields exactly streamAPs APs holding exactly streamClients
// clients, so seeds vary the stream's contents but not its size: whole
// networks are taken in ID order while they fit both quotas, and the
// first network large enough fills the remainder with its first APs and
// clients. Every client stays on the AP the fleet assigns it (client i
// of a network on its AP i mod APs), and each 5-minute window carries
// one report per AP. Report density follows backend's benchReport: two
// radios, every client with user agents, DHCP fingerprints and four app
// counters, eight neighbors, two link windows and four scan samples.
const (
	streamClients  = 18000
	streamAPs      = 720
	streamNetworks = 2000 // fleet size the quotas are filled from
	windowSecs     = 300
	appsPerClient  = 4
	neighborsPerAP = 8
	// appVariants is how many distinct per-window usage counters a
	// client cycles through, so counters drift between windows without
	// a fresh allocation per client per window.
	appVariants = 4
	// streamEpochTS stamps the first window; later windows advance by
	// windowSecs.
	streamEpochTS = uint64(epoch.Jan2015) * 1e6
)

// streamAP is one AP of the stream with its fixed contents.
type streamAP struct {
	serial    string
	mac       dot11.MAC
	ch24, ch5 int
	// clients[v] is the AP's client list with usage variant v.
	clients   [appVariants][]telemetry.ClientRecord
	neighbors []telemetry.NeighborRecord
}

// stream is the seed's harvest stream.
type stream struct {
	aps     []streamAP
	clients int
}

// pickNetworks chooses the networks (and how many of each one's APs and
// clients) that fill the stream's quotas exactly. Whole networks are
// taken in ID order while what remains keeps between minPerAP and
// maxPerAP clients per AP; the remainder is filled from the networks
// passed over, part of each, keeping that band until the last AP.
func pickNetworks(f *synth.Fleet) (nets []*synth.Network, aps, clients []int, err error) {
	const minPerAP, maxPerAP = 1, 200
	a, c := 0, 0
	take := func(n *synth.Network, ka, kc int) {
		nets, aps, clients = append(nets, n), append(aps, ka), append(clients, kc)
		a, c = a+ka, c+kc
	}
	fits := func(ra, rc int) bool { return ra >= 1 && rc >= minPerAP*ra && rc <= maxPerAP*ra }
	var rest []*synth.Network
	for _, n := range f.NetworkOrder() {
		if fits(streamAPs-a-len(n.APs), streamClients-c-n.NumClients) {
			take(n, len(n.APs), n.NumClients)
			continue
		}
		rest = append(rest, n)
	}
	for _, n := range rest {
		ra, rc := streamAPs-a, streamClients-c
		if ra == 0 {
			break
		}
		if len(n.APs) >= ra && n.NumClients >= rc {
			take(n, ra, rc)
			break
		}
		ka := min(len(n.APs), ra-1)
		lo := max(1, rc-maxPerAP*(ra-ka))
		hi := min(n.NumClients, rc-minPerAP*(ra-ka))
		if ka >= 1 && lo <= hi {
			take(n, ka, hi)
		}
	}
	if a != streamAPs || c != streamClients {
		return nil, nil, nil, fmt.Errorf("stream: fleet filled %d of %d APs and %d of %d clients", a, streamAPs, c, streamClients)
	}
	return nets, aps, clients, nil
}

// newStream builds the stream for seed.
func newStream(seed uint64) (*stream, error) {
	f, err := synth.GenerateFleet(synth.Params{
		Seed: seed, NumNetworks: streamNetworks, Epoch: epoch.Jan2015, ClientCap: 400,
	})
	if err != nil {
		return nil, err
	}
	nets, nAPs, nClients, err := pickNetworks(f)
	if err != nil {
		return nil, err
	}
	catalog := apps.Catalog()
	root := rng.New(seed).Split("perfbench/stream")
	s := &stream{}
	for k, n := range nets {
		base := len(s.aps)
		for i, a := range n.APs[:nAPs[k]] {
			idx := base + i
			asrc := root.SplitN("ap", idx)
			sa := streamAP{
				serial: a.Serial, mac: a.MAC,
				ch24: a.Radio24.Channel.Number, ch5: a.Radio5.Channel.Number,
			}
			for nb := 0; nb < neighborsPerAP; nb++ {
				sa.neighbors = append(sa.neighbors, telemetry.NeighborRecord{
					BSSID:   dot11.BSSID{0x02, 0x18, byte(idx >> 8), byte(idx), byte(nb), 9},
					SSID:    fmt.Sprintf("neighbor-%d", asrc.IntN(50)),
					Band:    dot11.Band24,
					Channel: []int{1, 6, 11}[asrc.IntN(3)],
					RSSIdB:  -int32(40 + asrc.IntN(45)),
					Vendor:  []string{"Cisco", "Aruba", "Ubiquiti", "Netgear"}[asrc.IntN(4)],
				})
			}
			s.aps = append(s.aps, sa)
		}
		for i, dev := range f.Clients(n)[:nClients[k]] {
			csrc := root.SplitN("client", s.clients+i)
			dhcp, uas := dev.Artifacts(csrc.Split("artifacts"))
			uas = append(uas, fmt.Sprintf("AppClient/%d.0", csrc.IntN(3)))
			band := dot11.Band24
			if dev.Caps.FiveGHz && csrc.Bool(0.2) {
				band = dot11.Band5
			}
			rec := telemetry.ClientRecord{
				MAC: dev.MAC, Band: band, RSSIdB: int32(10 + csrc.IntN(40)), Caps: dev.Caps,
				UserAgents: uas, DHCPFingerprints: dhcp,
			}
			picks := make([]apps.AppInfo, appsPerClient)
			up := make([]uint64, appsPerClient)
			down := make([]uint64, appsPerClient)
			for j := range picks {
				picks[j] = catalog[csrc.Zipf(len(catalog), 1.1)]
				up[j] = uint64(1e3 + csrc.Exp(2e4))
				down[j] = uint64(1e4 + csrc.Exp(2e6))
			}
			ap := &s.aps[base+i%nAPs[k]]
			for v := 0; v < appVariants; v++ {
				r := rec
				r.Apps = make([]telemetry.AppUsageRecord, appsPerClient)
				for j, a := range picks {
					r.Apps[j] = telemetry.AppUsageRecord{
						App: a.Name, UpBytes: up[j] * uint64(v+1), DownBytes: down[j] * uint64(v+1),
						Flows: uint32(1 + (j+v)%5),
					}
				}
				ap.clients[v] = append(ap.clients[v], r)
			}
		}
		s.clients += nClients[k]
	}
	return s, nil
}

// report builds AP i's report for window w. Timestamps advance by one
// window and radio, link and scan counters drift with w; the client
// records are shared between reports (nothing downstream mutates them).
func (s *stream) report(w, i int) *telemetry.Report {
	a := &s.aps[i]
	d := uint64(w)
	r := &telemetry.Report{
		Serial:    a.serial,
		MAC:       a.mac,
		Timestamp: streamEpochTS + d*windowSecs,
		Radios: []telemetry.RadioStats{
			{Band: dot11.Band24, Channel: a.ch24, WidthMHz: 20, CycleUS: 300e6,
				RxClearUS: 60e6 + (d*7919+uint64(i)*104729)%90e6, Rx11US: 30e6, TxUS: 15e6 + d%7*1e6},
			{Band: dot11.Band5, Channel: a.ch5, WidthMHz: 40, CycleUS: 300e6,
				RxClearUS: 20e6 + (d*6007+uint64(i)*7727)%60e6, Rx11US: 12e6, TxUS: 8e6 + d%5*1e6},
		},
		Clients:   a.clients[w%appVariants],
		Neighbors: a.neighbors,
	}
	for l := 0; l < 2; l++ {
		r.LinkWindows = append(r.LinkWindows, telemetry.LinkWindow{
			Peer: s.aps[(i+l+1)%len(s.aps)].mac, Band: dot11.Band5,
			Sent: 200 + uint32(d%50), Delivered: 180 + uint32((d+uint64(l))%20),
		})
	}
	for k := 0; k < 4; k++ {
		r.ScanSamples = append(r.ScanSamples, telemetry.ScanSample{
			Band: dot11.Band5, Channel: 36 + 4*k,
			BusyPermille: 100 + uint32((d*31+uint64(k*17+i))%400), DecodablePermille: 80,
		})
	}
	return r
}

// window returns every AP's report for window w, in AP order.
func (s *stream) window(w int) []*telemetry.Report {
	out := make([]*telemetry.Report, len(s.aps))
	for i := range s.aps {
		out[i] = s.report(w, i)
	}
	return out
}

// agentOf places AP i on one of n agents; each AP's reports always
// travel through the same agent, so its per-AP order is the stream's.
func agentOf(i, n int) int { return i % n }

package main

import (
	"time"

	"wgtt/internal/backhaul"
	"wgtt/internal/controller"
	"wgtt/internal/core"
	"wgtt/internal/csi"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/radio"
	"wgtt/internal/selector"
	"wgtt/internal/sim"
	"wgtt/internal/urban"
)

// directCall is one layer entry point timed on its own.
type directCall struct {
	metric string
	batch  int
	// prepare builds the inputs from the workload's scenario (speed, seed)
	// and returns the function that makes n calls.
	prepare func(w workload, seed uint64) (func(n int), error)
}

var microSink float64

var directCalls = []directCall{
	{"radio.gains_ns_per_call", 256, func(w workload, seed uint64) (func(int), error) {
		f, spacing, dst := workloadFader(w, seed)
		t := 0.0
		return func(n int) {
			for i := 0; i < n; i++ {
				t += 1e-4 // CSI sampling pace of a busy link
				f.GainsDB(t, spacing, dst)
			}
			microSink += dst[0]
		}, nil
	}},
	{"csi.esnr_ns_per_call", 256, func(w workload, seed uint64) (func(int), error) {
		snaps := snrSnapshots(w, seed)
		k := 0
		return func(n int) {
			for i := 0; i < n; i++ {
				microSink += csi.ESNRdB(snaps[k&63], csi.DefaultESNRModulation)
				k++
			}
		}, nil
	}},
	{"phy.ber_ns_per_call", 4096, func(w workload, seed uint64) (func(int), error) {
		snaps := snrSnapshots(w, seed)
		k := 0
		return func(n int) {
			for i := 0; i < n; i++ {
				microSink += csi.DefaultESNRModulation.BERdB(snaps[(k/56)&63][k%56])
				k++
			}
		}, nil
	}},
	{"packet.encode_ns_per_msg", 1024, func(workload, uint64) (func(int), error) {
		msg := benchDownData()
		var buf []byte
		return func(n int) {
			for i := 0; i < n; i++ {
				buf = packet.EncodeInto(buf[:0], msg)
			}
			microSink += float64(len(buf))
		}, nil
	}},
	{"packet.decode_ns_per_msg", 1024, func(workload, uint64) (func(int), error) {
		wire := packet.Encode(benchDownData())
		return func(n int) {
			for i := 0; i < n; i++ {
				m, err := packet.Decode(wire)
				if err != nil {
					panic(err) // a message this package just encoded
				}
				microSink += float64(m.WireSize())
			}
		}, nil
	}},
	{"backhaul.sendmany_ns_per_copy", 128, func(workload, uint64) (func(int), error) {
		const width = 8
		eng := sim.NewEngine()
		bh := backhaul.NewSwitch(eng, 200*sim.Microsecond)
		sink := backhaul.NodeFunc(func(packet.IPv4Addr, packet.Message) {})
		tos := make([]packet.IPv4Addr, width)
		for i := range tos {
			tos[i] = packet.APIP(i)
			bh.Attach(tos[i], sink)
		}
		msg := benchDownData()
		return func(n int) {
			// n is a number of copies; one SendMany makes width of them.
			for i := 0; i < n; i += width {
				bh.SendMany(packet.ControllerIP, tos, msg)
				eng.Run()
			}
		}, nil
	}},
	{"selector.decide_ns_per_call", 256, func(w workload, seed uint64) (func(int), error) {
		const aps = 8
		cc := controller.DefaultConfig()
		sel := selector.New(selector.Config{}, selector.Params{
			Window: cc.Window, MedianMarginDB: cc.MedianMarginDB,
			MinSamples: cc.MinSamples, MinSwitchESNRdB: cc.MinSwitchESNRdB,
		}, aps)
		mac := packet.ClientMAC(1)
		sel.AddClient(mac, 0)
		snaps := snrSnapshots(w, seed)
		esnr := make([]float64, len(snaps))
		for i, s := range snaps {
			esnr[i] = csi.ESNRdB(s, csi.DefaultESNRModulation)
		}
		alive := func(int) bool { return true }
		var at sim.Time
		k := 0
		return func(n int) {
			for i := 0; i < n; i++ {
				at += 100 * sim.Microsecond
				sel.Observe(mac, k%aps, esnr[k&63], at)
				d := sel.Decide(mac, 0, at, alive)
				microSink += float64(d.Target)
				k++
			}
		}, nil
	}},
	{"sim.event_ns", 1024, func(workload, uint64) (func(int), error) {
		eng := sim.NewEngine()
		fired := 0
		fn := func() { fired++ }
		return func(n int) {
			// Eight pending events at a time: a small heap, as in a corridor.
			for i := 0; i < n; i += 8 {
				for j := 0; j < 8; j++ {
					eng.After(sim.Time(8-j)*sim.Microsecond, fn)
				}
				eng.Run()
			}
			microSink += float64(fired)
		}, nil
	}},
	{"urban.blockage_ns_per_call", 1024, func(w workload, seed uint64) (func(int), error) {
		cfg := metroConfig(seed, 1)
		plan, err := urban.BuildMetroPlan(*cfg.Metro, metroPlanSeed(seed))
		if err != nil {
			return nil, err
		}
		g := plan.City.Graph
		aps := plan.City.APPositions()
		var clients []mobility.Point
		for _, c := range plan.Clients {
			for t := sim.Time(0); t < plan.Duration(); t += sim.Second {
				clients = append(clients, c.Plan.Trace.Position(t))
			}
		}
		k := 0
		return func(n int) {
			for i := 0; i < n; i++ {
				microSink += g.BlockageDB(aps[k%len(aps)], clients[k%len(clients)])
				k++
			}
		}, nil
	}},
}

// workloadFader builds a link fader as radio.Channel.Link does, with the
// Doppler of the workload's scenario speed and a stream of the run's seed.
func workloadFader(w workload, seed uint64) (f *radio.Fader, spacingHz float64, dst []float64) {
	p := radio.DefaultParams()
	doppler := radio.DopplerHz(mobility.MPH(w.speedMPH), p.FrequencyHz)
	f = radio.NewFader(p.Taps, p.Oscillators, doppler, p.MinDopplerHz, sim.NewRNG(seed).Stream("bench/fader"))
	f.Prime(p.Subcarriers, p.SubcarrierSpacingHz)
	return f, p.SubcarrierSpacingHz, make([]float64, p.Subcarriers)
}

// snrSnapshots draws 64 per-subcarrier SNR snapshots 5 ms apart from the
// workload's fader around a mid-cell 22 dB.
func snrSnapshots(w workload, seed uint64) [][]float64 {
	f, spacing, _ := workloadFader(w, seed)
	out := make([][]float64, 64)
	for i := range out {
		out[i] = make([]float64, packet.CSISubcarriers)
		f.GainsDB(float64(i)*5e-3, spacing, out[i])
		for j := range out[i] {
			out[i][j] += 22
		}
	}
	return out
}

func benchDownData() *packet.DownData {
	return &packet.DownData{APDst: packet.APIP(0), Pkt: &packet.Packet{
		FlowID: 1, Seq: 7, IPID: 7, SrcIP: core.ServerIP, DstIP: packet.ClientIP(1),
		ClientMAC: packet.ClientMAC(1), Bytes: 1400, Index: 7,
	}}
}

// timeDirectCalls times every direct call for dur, in slices of about a
// millisecond with reference passes between them as in a rep, and returns
// reference-normalised nanoseconds per call.
func timeDirectCalls(w workload, seed uint64, dur time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	for _, dc := range directCalls {
		call, err := dc.prepare(w, seed)
		if err != nil {
			return nil, err
		}
		call(dc.batch) // first-use growth happens outside the timer
		var clock refClock
		calls := 0
		for clock.work < dur.Seconds() {
			t0 := time.Now()
			for time.Since(t0) < time.Millisecond {
				call(dc.batch)
				calls += dc.batch
			}
			clock.slice(time.Since(t0).Seconds())
		}
		out[dc.metric] = clock.refSeconds() * 1e9 / float64(calls)
	}
	return out, nil
}

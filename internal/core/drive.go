package core

import (
	"os"

	"wgtt/internal/sim"
	"wgtt/internal/trace"
	"wgtt/internal/transport"
)

// Load is one client's downlink traffic on a drive.
type Load struct {
	// TCP selects bulk downlink TCP; CBR downlink UDP at RateMbps otherwise.
	TCP      bool
	RateMbps float64
	// Start is when the flow begins sending. A client the scenario defers
	// (ClientSpec.Deferred) ignores it: its flow stays stopped until Resume.
	Start sim.Time
	// Record keeps the flow's delivery timeline (UDP Arrivals, TCP Progress);
	// off by default because a long run's timeline is large.
	Record bool
}

// Loads gives n clients the same load.
func Loads(n int, l Load) []Load {
	loads := make([]Load, n)
	for i := range loads {
		loads[i] = l
	}
	return loads
}

// Outcome is what one client's flow delivered.
type Outcome struct {
	TCP   bool
	Bytes uint64
	// Mbps is the goodput over the client's own window: flow start to the
	// scenario horizon.
	Mbps float64
	// Sent, Received and Loss are the UDP flow's datagram counts and loss
	// fraction (zero for TCP). Received counts Duplicates too; Lost and
	// Unresolved split what never arrived (transport.UDPReceiver.Tally), so
	// Sent + Duplicates = Received + Lost + Unresolved.
	Sent, Received               uint64
	Duplicates, Lost, Unresolved uint64
	Loss                         float64
	// Arrivals is the UDP flow's delivery timeline; nil unless Load.Record.
	Arrivals []transport.Arrival
}

// Drive is the paper's measurement method (§5) as one harness: per-client
// downlink iperf-style flows attached to a built network, and the outcome
// read off afterwards. Attach wires the flows; Network.Run finishes the run
// and holds it to its conservation laws, these flows' included (a metro
// tile reaches its horizon in lockstep RunUntil epochs first); Outcome
// reads the result and Close completes the trace.
type Drive struct {
	Net *Network
	// UDP[i] or TCP[i] is client i's flow and the other is nil, for the few
	// callers that need a sender's cursor or Timeouts, or a receiver's hooks.
	UDP []*DownUDP
	TCP []*DownTCP

	loads []Load

	match, total int // oracle samples
	rec          *trace.Recorder
	traceFile    *os.File
}

// Attach puts one downlink flow per client on the network: loads[i] is
// client i's.
func (n *Network) Attach(loads []Load) *Drive {
	d := &Drive{
		Net:   n,
		UDP:   make([]*DownUDP, len(loads)),
		TCP:   make([]*DownTCP, len(loads)),
		loads: loads,
	}
	for i, l := range loads {
		var start func()
		if l.TCP {
			d.TCP[i] = n.AddDownlinkTCP(i, 0, nil)
			d.TCP[i].Receiver.Record = l.Record
			start = d.TCP[i].Sender.Start
		} else {
			d.UDP[i] = n.AddDownlinkUDP(i, l.RateMbps, 0) // the transport's default datagram, 1400 B
			d.UDP[i].Receiver.Record = l.Record
			start = d.UDP[i].Sender.Start
		}
		if !n.Scenario.Clients[i].Deferred {
			n.Eng.At(l.Start, start)
		}
	}
	return d
}

// Resume starts client i's stopped UDP flow at another network's cursor
// (transport.UDPSender.Cursor): a migrated client's flow continues where
// the source cell's stopped, and the datagrams other cells carried are not
// charged to this one's loss.
func (d *Drive) Resume(i int, seq uint32, ipid uint16) {
	f := d.UDP[i]
	cur, _ := f.Sender.Cursor()
	f.Receiver.Skip(cur, seq)
	f.Sender.Resume(seq, ipid)
	f.Sender.Start()
}

// SampleOracle samples every client against the ground-truth best-ESNR AP
// each period (Table 2's methodology) and feeds Accuracy.
func (d *Drive) SampleOracle(period sim.Time) {
	n := d.Net
	n.Every(period, func(at sim.Time) {
		for ci := range n.Clients {
			best, esnr := n.BestESNRAP(ci, at)
			if esnr < 0 {
				continue // out of everyone's range: no meaningful optimum
			}
			d.total++
			if n.ServingAP(ci) == best {
				d.match++
			}
		}
	})
}

// Accuracy is the percentage of in-range oracle samples where the serving
// AP was the ESNR-optimal one (0 without SampleOracle).
func (d *Drive) Accuracy() float64 {
	if d.total == 0 {
		return 0
	}
	return 100 * float64(d.match) / float64(d.total)
}

// TraceTo streams the run's event log (AttachRecorder) into a new file at
// path; Close completes it.
func (d *Drive) TraceTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	d.traceFile = f
	d.rec = trace.NewRecorder(f)
	d.Net.AttachRecorder(d.rec)
	return nil
}

// Close flushes and closes the drive's trace and returns how many events it
// holds; without TraceTo it does nothing.
func (d *Drive) Close() (events int, err error) {
	if d.rec == nil {
		return 0, nil
	}
	err = d.rec.Flush()
	if cerr := d.traceFile.Close(); err == nil {
		err = cerr
	}
	return d.rec.N, err
}

// Outcome reads client i's flow.
func (d *Drive) Outcome(i int) Outcome {
	o := Outcome{TCP: d.loads[i].TCP}
	if f := d.UDP[i]; f != nil {
		o.Bytes = f.Receiver.Bytes
		o.Sent = f.Sender.Sent
		o.Received = f.Receiver.Received
		o.Duplicates = f.Receiver.Duplicates
		o.Loss = f.Receiver.LossRate()
		next, _ := f.Sender.Cursor()
		o.Lost, o.Unresolved = f.Receiver.Tally(next)
		o.Arrivals = f.Receiver.Arrivals
	} else {
		o.Bytes = d.TCP[i].Receiver.DeliveredBytes
	}
	o.Mbps = Mbps(o.Bytes, d.Net.Scenario.Duration-d.loads[i].Start)
	return o
}

// Outcomes reads every client's flow, in client order.
func (d *Drive) Outcomes() []Outcome {
	out := make([]Outcome, len(d.loads))
	for i := range out {
		out[i] = d.Outcome(i)
	}
	return out
}

// Mbps is bytes of goodput over a time span, in Mb/s (0 for an empty span).
func Mbps(bytes uint64, over sim.Time) float64 {
	if over <= 0 {
		return 0
	}
	return float64(bytes) * 8 / 1e6 / over.Seconds()
}

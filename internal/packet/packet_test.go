package packet

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"wgtt/internal/sim"
)

func TestAddrStrings(t *testing.T) {
	m := MACAddr{0x02, 0xc1, 0x1e, 0, 0, 0x07}
	if m.String() != "02:c1:1e:00:00:07" {
		t.Errorf("MAC string = %q", m.String())
	}
	ip := IPv4Addr{10, 0, 0, 12}
	if ip.String() != "10.0.0.12" {
		t.Errorf("IP string = %q", ip.String())
	}
	if (IPv4Addr{}).IsZero() != true || ip.IsZero() {
		t.Error("IP IsZero wrong")
	}
}

func TestDerivedAddrs(t *testing.T) {
	if ClientMAC(1) == ClientMAC(2) {
		t.Error("client MACs collide")
	}
	if APMAC(1) == ClientMAC(1) {
		t.Error("AP and client MAC spaces overlap")
	}
	if APIP(0) != (IPv4Addr{10, 0, 0, 10}) {
		t.Errorf("APIP(0) = %v", APIP(0))
	}
	if ClientIP(0) != (IPv4Addr{192, 168, 1, 100}) {
		t.Errorf("ClientIP(0) = %v", ClientIP(0))
	}
}

func TestIndexArithmetic(t *testing.T) {
	if IndexDist(10, 15) != 5 {
		t.Error("forward distance wrong")
	}
	if IndexDist(4090, 3) != 9 { // wraps through 4095→0
		t.Errorf("wrapped distance = %d", IndexDist(4090, 3))
	}
	if NextIndex(4095) != 0 {
		t.Error("NextIndex does not wrap")
	}
	if NextIndex(7) != 8 {
		t.Error("NextIndex wrong")
	}
	// Property: dist(a, next(a)) == 1 for all 12-bit a.
	f := func(a uint16) bool {
		a &= IndexMask
		return IndexDist(a, NextIndex(a)) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDedupKey(t *testing.T) {
	p1 := &Packet{SrcIP: IPv4Addr{192, 168, 1, 100}, IPID: 7}
	p2 := &Packet{SrcIP: IPv4Addr{192, 168, 1, 100}, IPID: 7}
	p3 := &Packet{SrcIP: IPv4Addr{192, 168, 1, 100}, IPID: 8}
	p4 := &Packet{SrcIP: IPv4Addr{192, 168, 1, 101}, IPID: 7}
	if KeyOf(p1) != KeyOf(p2) {
		t.Error("identical packets produced different keys")
	}
	if KeyOf(p1) == KeyOf(p3) || KeyOf(p1) == KeyOf(p4) {
		t.Error("distinct packets collided")
	}
	// 48-bit: top 16 bits must be clear.
	if KeyOf(p1)>>48 != 0 {
		t.Error("key wider than 48 bits")
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{FlowID: 1, Seq: 2, Bytes: 1500, Index: 9}
	if p.String() != "pkt{flow=1 seq=2 down 1500B idx=9}" {
		t.Errorf("String = %q", p.String())
	}
	p.Uplink = true
	if p.String() != "pkt{flow=1 seq=2 up 1500B idx=9}" {
		t.Errorf("String = %q", p.String())
	}
}

func randomPacket(rnd *rand.Rand) *Packet {
	return &Packet{
		FlowID:    rnd.Uint32(),
		Seq:       rnd.Uint32(),
		IPID:      uint16(rnd.Uint32()),
		SrcIP:     IPv4Addr{byte(rnd.Uint32()), byte(rnd.Uint32()), byte(rnd.Uint32()), byte(rnd.Uint32())},
		DstIP:     IPv4Addr{byte(rnd.Uint32()), byte(rnd.Uint32()), byte(rnd.Uint32()), byte(rnd.Uint32())},
		ClientMAC: ClientMAC(int(rnd.Uint32() % 100)),
		Bytes:     int(rnd.Uint32() % 9000),
		Index:     uint16(rnd.Uint32()) & IndexMask,
		Uplink:    rnd.Uint32()%2 == 0,
		Created:   sim.Time(rnd.Uint64() % (1 << 40)),
		Kind:      Kind(rnd.Uint32() % 2),
	}
}

func TestWireRoundTrips(t *testing.T) {
	rnd := rand.New(rand.NewPCG(1, 2))
	msgs := []Message{
		&DownData{APDst: APIP(3), Pkt: randomPacket(rnd)},
		&UpData{APSrc: APIP(5), Pkt: randomPacket(rnd)},
		&Stop{Client: ClientMAC(1), NextAP: APIP(2), SwitchID: 99},
		&Start{Client: ClientMAC(1), Index: 4095, SwitchID: 99},
		&SwitchAck{Client: ClientMAC(1), AP: APIP(2), SwitchID: 99},
		&BlockAckFwd{Client: ClientMAC(2), FromAP: APIP(7), SSN: 1000, Bitmap: 0xdeadbeefcafef00d},
		&HealthProbe{Seq: 41, At: 987654321},
		&HealthAck{AP: APIP(6), Seq: 41, At: 987654321},
	}
	for _, m := range msgs {
		raw := Encode(m)
		if len(raw) != 3+m.WireSize() {
			t.Errorf("%v: encoded %d bytes, WireSize says %d", m.Type(), len(raw)-3, m.WireSize())
		}
		got, err := Decode(raw)
		if err != nil {
			t.Errorf("%v: decode: %v", m.Type(), err)
			continue
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%v: round trip mismatch:\n got %+v\nwant %+v", m.Type(), got, m)
		}
	}
}

func TestCSIReportRoundTrip(t *testing.T) {
	c := &CSIReport{Client: ClientMAC(1), AP: APIP(4), At: 123456789}
	snr := make([]float64, CSISubcarriers)
	for i := range snr {
		snr[i] = float64(i)/4 - 3 // exact quarter-dB values
	}
	c.QuantizeSNR(snr)
	raw := Encode(c)
	got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	back := got.(*CSIReport).SNRdBInto(nil)
	for i := range snr {
		if back[i] != snr[i] {
			t.Fatalf("subcarrier %d: %v != %v", i, back[i], snr[i])
		}
	}
}

func TestCSIQuantizationClamp(t *testing.T) {
	c := &CSIReport{}
	c.QuantizeSNR([]float64{1e9, -1e9})
	if c.SNRQ[0] != 32767 || c.SNRQ[1] != -32768 {
		t.Errorf("clamping failed: %d, %d", c.SNRQ[0], c.SNRQ[1])
	}
	// Short input zero-fills the remainder.
	if c.SNRQ[2] != 0 {
		t.Error("short input not zero-filled")
	}
}

func TestCSIQuantizationError(t *testing.T) {
	// Quantization error must be below 0.125 dB for in-range values.
	c := &CSIReport{}
	in := []float64{3.14159, -7.6, 22.91, 0.01}
	full := make([]float64, CSISubcarriers)
	copy(full, in)
	c.QuantizeSNR(full)
	out := c.SNRdBInto(nil)
	for i := range in {
		if d := out[i] - in[i]; d > 0.125 || d < -0.125 {
			t.Errorf("quantization error %v at %d", d, i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("nil input accepted")
	}
	if _, err := Decode([]byte{byte(MsgStop), 0, 14}); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, err := Decode([]byte{0xEE, 0, 0}); err == nil {
		t.Error("unknown type accepted")
	}
	// Envelope claims fewer bytes than the message needs.
	raw := Encode(&Stop{})
	raw[2] = 3 // lie about the length
	if _, err := Decode(raw); err == nil {
		t.Error("short-claimed payload accepted")
	}
}

func TestMsgTypeString(t *testing.T) {
	names := map[MsgType]string{
		MsgDownData: "down-data", MsgUpData: "up-data", MsgStop: "stop",
		MsgStart: "start", MsgSwitchAck: "switch-ack", MsgCSI: "csi",
		MsgBAFwd: "ba-fwd", MsgType(8): "msg?8", MsgType(0): "msg?0",
		MsgHealthProbe: "health-probe", MsgHealthAck: "health-ack",
	}
	for ty, want := range names {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", uint8(ty), got, want)
		}
	}
}

// Property: any DownData with a random packet round-trips.
func TestDownDataRoundTripProperty(t *testing.T) {
	rnd := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 200; i++ {
		m := &DownData{APDst: APIP(i % 8), Pkt: randomPacket(rnd)}
		got, err := Decode(Encode(m))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

// Decode must never panic, whatever bytes arrive.
func TestDecodeRandomBytesNoPanic(t *testing.T) {
	rnd := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 5000; i++ {
		n := int(rnd.Uint32() % 64)
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = byte(rnd.Uint32())
		}
		_, _ = Decode(buf) // errors are fine; panics are not
	}
}

// Truncating a valid encoding at every length must error, not panic.
func TestDecodeTruncations(t *testing.T) {
	rnd := rand.New(rand.NewPCG(5, 6))
	full := Encode(&DownData{APDst: APIP(1), Pkt: randomPacket(rnd)})
	for n := 0; n < len(full); n++ {
		if _, err := Decode(full[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	if _, err := Decode(full); err != nil {
		t.Fatalf("full message failed: %v", err)
	}
}

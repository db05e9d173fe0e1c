package packet

import (
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"wgtt/internal/sim"
)

// retiredAssocFrame is a well-formed frame of the retired type 8 (the §4.3
// association sync): envelope, client MAC, client IP, AID 2007, authorized.
var retiredAssocFrame = []byte{8, 0, 13, 0x02, 0xc1, 0x1e, 0, 0, 6, 192, 168, 1, 106, 0x07, 0xd7, 1}

// exemplars returns one fully-populated message per MsgType, keyed by type.
// The exhaustiveness guard in TestCodecCoversEveryMsgType fails the build of
// this table the moment a new MsgType is added without an entry here.
func exemplars() map[MsgType]Message {
	rnd := rand.New(rand.NewPCG(7, 11))
	csi := &CSIReport{Client: ClientMAC(9), AP: APIP(3), At: 424242}
	snr := make([]float64, CSISubcarriers)
	for i := range snr {
		snr[i] = float64(i%40) - 8.25
	}
	csi.QuantizeSNR(snr)
	return map[MsgType]Message{
		MsgDownData: &DownData{APDst: APIP(1), Pkt: randomPacket(rnd)},
		MsgUpData:   &UpData{APSrc: APIP(2), Pkt: randomPacket(rnd)},
		MsgStop:     &Stop{Client: ClientMAC(4), NextAP: APIP(6), SwitchID: 1 << 30},
		MsgStart:    &Start{Client: ClientMAC(4), Index: IndexMask, SwitchID: 1},
		MsgSwitchAck: &SwitchAck{
			Client: ClientMAC(4), AP: APIP(6), SwitchID: 0xffffffff,
		},
		MsgCSI:         csi,
		MsgBAFwd:       &BlockAckFwd{Client: ClientMAC(5), FromAP: APIP(0), SSN: 4095, Bitmap: ^uint64(0)},
		MsgHealthProbe: &HealthProbe{Seq: 0xdeadbeef, At: -1},
		MsgHealthAck:   &HealthAck{AP: APIP(7), Seq: 0xdeadbeef, At: 1 << 60},
		MsgDomainHandoffOffer: &DomainHandoffOffer{
			HandoffID: 1<<24 | 7, Client: ClientMAC(4), ClientIP: ClientIP(4),
			ServingAP: APIP(3), TargetAP: APIP(4), EvidenceQ: -33,
		},
		MsgDomainHandoffAccept: &DomainHandoffAccept{
			HandoffID: 1<<24 | 7, Client: ClientMAC(4), Accept: true,
		},
		MsgDomainHandoffCommit: &DomainHandoffCommit{
			HandoffID: 1<<24 | 7, Client: ClientMAC(4), ClientIP: ClientIP(4),
			ServingAP: APIP(3), TargetAP: APIP(4), NextIndex: IndexMask,
			DedupKeys: []DedupKey{0, 1, KeyOf(randomPacket(rnd)), 1<<48 - 1},
			Evidence:  []APESNR{{AP: APIP(4), MedianQ: 97}, {AP: APIP(5), MedianQ: -12}},
		},
	}
}

// TestCodecCoversEveryMsgType is the exhaustive Encode/Decode round-trip:
// every declared MsgType (including the late-added health pair) must have an
// exemplar, encode to exactly 3+WireSize bytes, and decode back to a deep
// equal value. The guard also pins the type-space end, so adding an eleventh
// message type without extending this test fails loudly.
func TestCodecCoversEveryMsgType(t *testing.T) {
	ex := exemplars()
	for tt := MsgDownData; tt <= MsgDomainHandoffCommit; tt++ {
		if tt == MsgType(retiredAssocFrame[0]) {
			continue // reserved gap, pinned by TestMsgTypeWireNumbers
		}
		m, ok := ex[tt]
		if !ok {
			t.Fatalf("no exemplar for MsgType %d (%v) — extend exemplars()", tt, tt)
		}
		if m.Type() != tt {
			t.Fatalf("exemplar filed under %v reports Type %v", tt, m.Type())
		}
		raw := Encode(m)
		if len(raw) != 3+m.WireSize() {
			t.Errorf("%v: len(Encode) = %d, want 3+WireSize = %d", tt, len(raw), 3+m.WireSize())
		}
		got, err := Decode(raw)
		if err != nil {
			t.Errorf("%v: decode: %v", tt, err)
			continue
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%v: round trip mismatch:\n got %+v\nwant %+v", tt, got, m)
		}
	}
	// The guard's other half: the loop above spans the whole declared type
	// space. A type added after MsgHealthAck would make this String() hit a
	// real case and fail here, pointing at the loop bound.
	if s := (MsgDomainHandoffCommit + 1).String(); !strings.HasPrefix(s, "msg?") {
		t.Fatalf("MsgType %d has a name (%q) but is outside the exhaustive loop — update TestCodecCoversEveryMsgType", MsgDomainHandoffCommit+1, s)
	}
}

// The live tier and the fuzz corpus speak these numbers: a type may be
// retired, but the survivors are never renumbered, and a frame carrying a
// retired type byte is an error to Decode, not a panic.
func TestMsgTypeWireNumbers(t *testing.T) {
	want := map[MsgType]uint8{
		MsgDownData: 1, MsgUpData: 2, MsgStop: 3, MsgStart: 4, MsgSwitchAck: 5,
		MsgCSI: 6, MsgBAFwd: 7, MsgHealthProbe: 9, MsgHealthAck: 10,
		MsgDomainHandoffOffer: 11, MsgDomainHandoffAccept: 12, MsgDomainHandoffCommit: 13,
	}
	if len(want) != len(exemplars()) {
		t.Fatalf("%d wire numbers pinned, %d message types have exemplars", len(want), len(exemplars()))
	}
	for tt, n := range want {
		if uint8(tt) != n {
			t.Errorf("%v is wire type %d, want %d", tt, uint8(tt), n)
		}
	}
	if m, err := Decode(retiredAssocFrame); err == nil {
		t.Errorf("retired type 8 decoded to %+v, want an error", m)
	}
}

// Every message's envelope length field must equal its payload length, so a
// receiver can frame messages out of a byte stream using WireSize alone.
func TestEnvelopeLengthMatchesWireSize(t *testing.T) {
	for tt, m := range exemplars() {
		raw := Encode(m)
		n := int(raw[1])<<8 | int(raw[2])
		if n != m.WireSize() || n != len(raw)-3 {
			t.Errorf("%v: envelope length %d, WireSize %d, payload %d", tt, n, m.WireSize(), len(raw)-3)
		}
	}
}

// FuzzDecode throws arbitrary bytes at the decoder: it must return a value
// or an error, never panic, and anything it accepts must re-encode and
// re-decode to the same value (round-trip stability on the accepted set) —
// and decode to that value again through a Scratch that last held other
// messages: no stale SNRQ, Pkt or APDst may leak into a reused envelope.
func FuzzDecode(f *testing.F) {
	ex := exemplars()
	for _, m := range ex {
		f.Add(Encode(m))
	}
	dirt := [][]byte{Encode(ex[MsgDownData]), Encode(ex[MsgCSI]), Encode(ex[MsgBAFwd])}
	// Adversarial seeds: truncations, length-field lies, unknown types.
	f.Add([]byte{})
	f.Add([]byte{byte(MsgStop)})
	f.Add([]byte{byte(MsgStop), 0xff, 0xff})
	f.Add([]byte{byte(MsgCSI), 0x00, 0x01, 0x42})
	f.Add([]byte{0x00, 0x00, 0x00})
	f.Add([]byte{0xff, 0x00, 0x04, 1, 2, 3, 4})
	f.Add(retiredAssocFrame)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		raw := Encode(m)
		if len(raw) != 3+m.WireSize() {
			t.Fatalf("accepted message re-encodes to %d bytes, want %d", len(raw), 3+m.WireSize())
		}
		again, err := Decode(raw)
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("accepted message unstable:\nfirst  %+v\nsecond %+v", m, again)
		}
		var sc Scratch
		for _, b := range dirt {
			if _, err := DecodeInto(b, &sc); err != nil {
				t.Fatal(err)
			}
		}
		reused, err := DecodeInto(data, &sc)
		if err != nil {
			t.Fatalf("decode into a used scratch failed: %v", err)
		}
		if !reflect.DeepEqual(m, reused) {
			t.Fatalf("a used scratch changes the message:\nfresh  %+v\nreused %+v", m, reused)
		}
	})
}

// Anchor the sim import used by randomPacket's Created field.
var _ = sim.Nanosecond

package packet

import (
	"bytes"
	"encoding/hex"
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

// wireHex is every exemplar's recorded encoding. Live nodes built from
// different commits interoperate only while these bytes hold, and a layout
// change that still round-trips (two fields swapped in both marshal and
// unmarshal) passes every other test.
var wireHex = map[MsgType]string{
	MsgDownData:            "0100290a00000b3b4b1755649ad460395c233a44983737514902c11e00000909c1038e0200000052fc54e343",
	MsgUpData:              "0200290a00000cedcf7e7b7bc590d86b36697a3dff6ce9185902c11e00003500b80ecc020000007e0fbf297f",
	MsgStop:                "03000e02c11e0000040a00001040000000",
	MsgStart:               "04000c02c11e0000040fff00000001",
	MsgSwitchAck:           "05000e02c11e0000040a000010ffffffff",
	MsgCSI:                 "06008202c11e0000090a00000d0000000000067932ffdfffe3ffe7ffebffeffff3fff7fffbffff00030007000b000f00130017001b001f00230027002b002f00330037003b003f00430047004b004f00530057005b005f00630067006b006f00730077007bffdfffe3ffe7ffebffeffff3fff7fffbffff00030007000b000f00130017001b",
	MsgBAFwd:               "07001402c11e0000050a00000a0fffffffffffffffffff",
	MsgHealthProbe:         "09000cdeadbeefffffffffffffffff",
	MsgHealthAck:           "0a00100a000011deadbeef1000000000000000",
	MsgDomainHandoffOffer:  "0b00180100000702c11e000004c0a801680a00000d0a00000effdf",
	MsgDomainHandoffAccept: "0c000b0100000702c11e00000401",
	MsgDomainHandoffCommit: "0d003f0100000702c11e000004c0a801680a00000d0a00000e0fff0004000000000000000000000001515012337b0affffffffffff020a00000e00610a00000ffff4",
}

// TestWireBytesPinned is the wire-compatibility gate: every message type
// encodes to its recorded bytes, and those bytes decode to the exemplar.
func TestWireBytesPinned(t *testing.T) {
	ex := exemplars()
	if len(wireHex) != len(ex) {
		t.Fatalf("%d encodings pinned, %d message types have exemplars", len(wireHex), len(ex))
	}
	for tt, m := range ex {
		if got := hex.EncodeToString(Encode(m)); got != wireHex[tt] {
			t.Errorf("%v encodes to\n%s\nwant\n%s", tt, got, wireHex[tt])
		}
		raw, _ := hex.DecodeString(wireHex[tt])
		if got, err := Decode(raw); err != nil || !reflect.DeepEqual(got, m) {
			t.Errorf("%v: pinned bytes decode to %+v, %v; want %+v", tt, got, err, m)
		}
	}
}

// grown returns raw with extra appended to the payload and the envelope's
// length field grown to match: a well-framed envelope around too long a
// payload.
func grown(raw []byte, extra ...byte) []byte {
	out := append(append([]byte{}, raw...), extra...)
	n := len(out) - 3
	out[1], out[2] = byte(n>>8), byte(n)
	return out
}

// Decode accepts exactly what Encode produces: a payload longer than its
// type's layout, bytes after the envelope, and a commit with bytes past its
// evidence section are each an error, as is a non-canonical accept flag.
func TestDecodeRejectsSlack(t *testing.T) {
	ex := exemplars()
	for tt, m := range ex {
		raw := Encode(m)
		if _, err := Decode(grown(raw, 0)); err == nil {
			t.Errorf("%v: payload one byte past its layout accepted", tt)
		}
		if _, err := Decode(append(raw, 0)); err == nil {
			t.Errorf("%v: byte after the envelope accepted", tt)
		}
	}
	commit := Encode(ex[MsgDomainHandoffCommit])
	if _, err := Decode(grown(commit, 1, 2, 3, 4, 5, 6)); err == nil {
		t.Error("commit with an evidence-sized tail past its evidence accepted")
	}
	accept := Encode(ex[MsgDomainHandoffAccept])
	accept[len(accept)-1] = 2
	if _, err := Decode(accept); err == nil {
		t.Error("accept flag 2 accepted")
	}
}

// indexFields are the protocol's 12-bit fields, each set on its type's
// exemplar by set.
var indexFields = []struct {
	name string
	typ  MsgType
	set  func(m Message, v uint16)
}{
	{"DownData packet index", MsgDownData, func(m Message, v uint16) { m.(*DownData).Pkt.Index = v }},
	{"UpData packet index", MsgUpData, func(m Message, v uint16) { m.(*UpData).Pkt.Index = v }},
	{"Start.Index", MsgStart, func(m Message, v uint16) { m.(*Start).Index = v }},
	{"DomainHandoffCommit.NextIndex", MsgDomainHandoffCommit, func(m Message, v uint16) { m.(*DomainHandoffCommit).NextIndex = v }},
	{"BlockAckFwd.SSN", MsgBAFwd, func(m Message, v uint16) { m.(*BlockAckFwd).SSN = v }},
}

// withIndex is the exemplar of field's type with field set to v.
func withIndex(field int, v uint16) Message {
	f := indexFields[field]
	m := exemplars()[f.typ]
	f.set(m, v)
	return m
}

// Every 12-bit field is a decode error past IndexMask — a ring walk toward
// such an index never ends — and round-trips at IndexMask.
func TestDecodeRejectsOutOfRangeIndex(t *testing.T) {
	for i, f := range indexFields {
		for _, v := range []uint16{IndexMask + 1, 0xffff} {
			if _, err := Decode(Encode(withIndex(i, v))); err == nil {
				t.Errorf("%s %d accepted", f.name, v)
			}
		}
		m := withIndex(i, IndexMask)
		if got, err := Decode(Encode(m)); err != nil || !reflect.DeepEqual(got, m) {
			t.Errorf("%s %d: decoded %+v, %v; want the message back", f.name, IndexMask, got, err)
		}
	}
}

// FuzzDecode throws arbitrary bytes at the decoder: it must return a value
// or an error, never panic, and anything it accepts must re-encode to
// exactly the input bytes — and decode to the same value again through a
// Scratch that last held other messages: no stale SNRQ, Pkt or APDst may
// leak into a reused envelope.
func FuzzDecode(f *testing.F) {
	ex := exemplars()
	for _, m := range ex {
		f.Add(Encode(m))
	}
	dirt := [][]byte{Encode(ex[MsgDownData]), Encode(ex[MsgCSI]), Encode(ex[MsgBAFwd])}
	// Adversarial seeds: truncations, length-field lies, unknown types,
	// slack after a well-formed message.
	f.Add([]byte{})
	f.Add([]byte{byte(MsgStop)})
	f.Add([]byte{byte(MsgStop), 0xff, 0xff})
	f.Add([]byte{byte(MsgCSI), 0x00, 0x01, 0x42})
	f.Add([]byte{0x00, 0x00, 0x00})
	f.Add([]byte{0xff, 0x00, 0x04, 1, 2, 3, 4})
	f.Add(retiredAssocFrame)
	f.Add(grown(Encode(ex[MsgStop]), 0))
	f.Add(grown(Encode(ex[MsgDomainHandoffCommit]), 0))
	for i := range indexFields {
		f.Add(Encode(withIndex(i, IndexMask+1)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		if raw := Encode(m); !bytes.Equal(raw, data) {
			t.Fatalf("accepted %x, which re-encodes to %x", data, raw)
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

package metadata

import (
	"bytes"
	"encoding/hex"
	"errors"
	"strings"
	"testing"
	"time"
)

// legacyRecordHex is the serialized form of legacyRecord() as written by the
// pre-class codec (record format v1, no class flags). It pins two compatibility
// guarantees at the byte level:
//
//  1. a record whose chunks are all in the default class ("") still encodes
//     to exactly these bytes — adding storage classes changed nothing about
//     classless records, so mixed fleets interoperate;
//  2. records already in the cloud (all written before classes existed)
//     decode losslessly, with every chunk mapped to the default class.
const legacyRecordHex = "4359524d01002861616634633631646463633565386132646162656465306633" +
	"6234383263643961656139343334640000000d6c65676163792d636c69656e74" +
	"000e646f63732f6e6f7465732e7478740017979cfe362a000000000000000008" +
	"0000000002002832616165366333356339346663666234313564626539356634" +
	"3038623963653931656538343665640000000000000000000000000000040000" +
	"0200030028376334613864303963613337363261663631653539353230393433" +
	"6463323634393466383934316200000000000004000000000000000400800200" +
	"0300000006002832616165366333356339346663666234313564626539356634" +
	"3038623963653931656538343665640000000764726f70626f78002832616165" +
	"3663333563393466636662343135646265393566343038623963653931656538" +
	"3436656400010006676472697665002832616165366333356339346663666234" +
	"31356462653935663430386239636539316565383436656400020003626f7800" +
	"2837633461386430396361333736326166363165353935323039343364633236" +
	"3439346638393431620000000667647269766500283763346138643039636133" +
	"3736326166363165353935323039343364633236343934663839343162000100" +
	"03626f7800283763346138643039636133373632616636316535393532303934" +
	"33646332363439346638393431620002000764726f70626f78"

const legacyVersionID = "48295e8e3893ce9e194e082d4822a88d685b9dd9"

func legacyRecord() *FileMeta {
	return &FileMeta{
		Format: FormatV1,
		File: FileMap{
			ID:       "aaf4c61ddcc5e8a2dabede0f3b482cd9aea9434d",
			ClientID: "legacy-client",
			Name:     "docs/notes.txt",
			Modified: time.Unix(1700000000, 0).UTC(),
			Size:     2048,
		},
		Chunks: []ChunkRef{
			{ID: "2aae6c35c94fcfb415dbe95f408b9ce91ee846ed", Offset: 0, Size: 1024, T: 2, N: 3},
			{ID: "7c4a8d09ca3762af61e59520943dc26494f8941b", Offset: 1024, Size: 1024, T: 2, N: 3, CAS: true},
		},
		Shares: []ShareLoc{
			{ChunkID: "2aae6c35c94fcfb415dbe95f408b9ce91ee846ed", Index: 0, CSP: "dropbox"},
			{ChunkID: "2aae6c35c94fcfb415dbe95f408b9ce91ee846ed", Index: 1, CSP: "gdrive"},
			{ChunkID: "2aae6c35c94fcfb415dbe95f408b9ce91ee846ed", Index: 2, CSP: "box"},
			{ChunkID: "7c4a8d09ca3762af61e59520943dc26494f8941b", Index: 0, CSP: "gdrive"},
			{ChunkID: "7c4a8d09ca3762af61e59520943dc26494f8941b", Index: 1, CSP: "box"},
			{ChunkID: "7c4a8d09ca3762af61e59520943dc26494f8941b", Index: 2, CSP: "dropbox"},
		},
	}
}

// TestGoldenClasslessRecord pins the pre-class wire format: classless
// records written by the class-aware codec are byte-for-byte what the old
// codec produced, and the golden bytes decode to a record whose chunks all
// carry the default class.
func TestGoldenClasslessRecord(t *testing.T) {
	golden, err := hex.DecodeString(legacyRecordHex)
	if err != nil {
		t.Fatalf("bad fixture hex: %v", err)
	}
	m := legacyRecord()
	data, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.Equal(data, golden) {
		t.Fatalf("classless record no longer encodes byte-identically to the pre-class format:\n got %s\nwant %s",
			hex.EncodeToString(data), legacyRecordHex)
	}

	dec, err := Decode(golden)
	if err != nil {
		t.Fatalf("Decode(golden): %v", err)
	}
	if dec.VersionID() != legacyVersionID {
		t.Fatalf("golden record version ID = %s, want %s", dec.VersionID(), legacyVersionID)
	}
	for i, c := range dec.Chunks {
		if c.Class != "" {
			t.Errorf("chunk %d: legacy record decoded with class %q, want default", i, c.Class)
		}
	}
	if !dec.Chunks[1].CAS || dec.Chunks[0].CAS {
		t.Errorf("CAS flags mangled: got %v/%v, want false/true", dec.Chunks[0].CAS, dec.Chunks[1].CAS)
	}
	if dec.Chunks[0].T != 2 || dec.Chunks[0].N != 3 {
		t.Errorf("chunk 0 (t,n) = (%d,%d), want (2,3)", dec.Chunks[0].T, dec.Chunks[0].N)
	}
}

// v2RecordHex is the serialized form of v2Record(): a record format v2
// version whose File.ID is the chunk-list root. It pins the v2 layout and
// the root's definition (ChunkListID over (chunk ID, size)) at the byte
// level; changing either would orphan every v2 record in the cloud.
const v2RecordHex = "4359524d02002832353365393464616163313461323261363733303163626239" +
	"3765626431623864353164653332300028343832393565386533383933636539" +
	"65313934653038326434383232613838643638356239646439000976322d636c" +
	"69656e74000e646f63732f6e6f7465732e7478740018fae27693b40000000000" +
	"00000007e8000000020028326161653663333563393466636662343135646265" +
	"3935663430386239636539316565383436656400000000000000000000000000" +
	"0004000002000300283763346138643039636133373632616636316535393532" +
	"3039343364633236343934663839343162000000000000040000000000000003" +
	"e8400300040004636f6c64000000070028326161653663333563393466636662" +
	"343135646265393566343038623963653931656538343665640000000764726f" +
	"70626f7800283261616536633335633934666366623431356462653935663430" +
	"3862396365393165653834366564000100066764726976650028326161653663" +
	"3335633934666366623431356462653935663430386239636539316565383436" +
	"656400020003626f780028376334613864303963613337363261663631653539" +
	"3532303934336463323634393466383934316200000006676472697665002837" +
	"6334613864303963613337363261663631653539353230393433646332363439" +
	"3466383934316200010003626f78002837633461386430396361333736326166" +
	"3631653539353230393433646332363439346638393431620002000764726f70" +
	"626f780028376334613864303963613337363261663631653539353230393433" +
	"64633236343934663839343162000300086f6e656472697665"

const (
	v2FileID    = "253e94daac14a22a67301cbb97ebd1b8d51de320"
	v2VersionID = "25205e685d5edbc2f282cd32d54ebad1f8121b5b"
)

// v2Record is a v2 child of legacyRecord(): the second chunk is shorter
// and was written under a named class at (3,4).
func v2Record() *FileMeta {
	chunks := []ChunkRef{
		{ID: "2aae6c35c94fcfb415dbe95f408b9ce91ee846ed", Offset: 0, Size: 1024, T: 2, N: 3},
		{ID: "7c4a8d09ca3762af61e59520943dc26494f8941b", Offset: 1024, Size: 1000, T: 3, N: 4, Class: "cold"},
	}
	return &FileMeta{
		Format: FormatV2,
		File: FileMap{
			ID:       v2FileID,
			PrevID:   legacyVersionID,
			ClientID: "v2-client",
			Name:     "docs/notes.txt",
			Modified: time.Unix(1800000000, 0).UTC(),
			Size:     2024,
		},
		Chunks: chunks,
		Shares: []ShareLoc{
			{ChunkID: "2aae6c35c94fcfb415dbe95f408b9ce91ee846ed", Index: 0, CSP: "dropbox"},
			{ChunkID: "2aae6c35c94fcfb415dbe95f408b9ce91ee846ed", Index: 1, CSP: "gdrive"},
			{ChunkID: "2aae6c35c94fcfb415dbe95f408b9ce91ee846ed", Index: 2, CSP: "box"},
			{ChunkID: "7c4a8d09ca3762af61e59520943dc26494f8941b", Index: 0, CSP: "gdrive"},
			{ChunkID: "7c4a8d09ca3762af61e59520943dc26494f8941b", Index: 1, CSP: "box"},
			{ChunkID: "7c4a8d09ca3762af61e59520943dc26494f8941b", Index: 2, CSP: "dropbox"},
			{ChunkID: "7c4a8d09ca3762af61e59520943dc26494f8941b", Index: 3, CSP: "onedrive"},
		},
	}
}

// TestGoldenV1RecordRoundTrip checks a v1 record read from the cloud keeps
// its format: it decodes as FormatV1 (so Get keeps the whole-file check)
// and re-encodes to the same bytes.
func TestGoldenV1RecordRoundTrip(t *testing.T) {
	golden, err := hex.DecodeString(legacyRecordHex)
	if err != nil {
		t.Fatalf("bad fixture hex: %v", err)
	}
	dec, err := Decode(golden)
	if err != nil {
		t.Fatalf("Decode(golden): %v", err)
	}
	if dec.Format != FormatV1 {
		t.Fatalf("v1 golden decoded as format %d", dec.Format)
	}
	again, err := Encode(dec)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.Equal(again, golden) {
		t.Fatalf("v1 record did not re-encode byte-identically:\n got %s\nwant %s", hex.EncodeToString(again), legacyRecordHex)
	}
}

// TestGoldenV2Record pins the v2 wire format and the chunk-list root.
func TestGoldenV2Record(t *testing.T) {
	golden, err := hex.DecodeString(v2RecordHex)
	if err != nil {
		t.Fatalf("bad fixture hex: %v", err)
	}
	m := v2Record()
	if got := ChunkListID(m.Chunks); got != v2FileID {
		t.Fatalf("ChunkListID = %s, want %s", got, v2FileID)
	}
	data, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.Equal(data, golden) {
		t.Fatalf("v2 record encoding changed:\n got %s\nwant %s", hex.EncodeToString(data), v2RecordHex)
	}

	dec, err := Decode(golden)
	if err != nil {
		t.Fatalf("Decode(golden): %v", err)
	}
	if dec.Format != FormatV2 || dec.VersionID() != v2VersionID {
		t.Fatalf("v2 golden decoded as format %d, version %s", dec.Format, dec.VersionID())
	}
	if ChunkListID(dec.Chunks) != dec.File.ID {
		t.Fatal("decoded v2 record's ID is not its chunk-list root")
	}
	if dec.Chunks[1].Class != "cold" || dec.Chunks[1].T != 3 || dec.Chunks[1].N != 4 {
		t.Fatalf("chunk 1 decoded as %+v", dec.Chunks[1])
	}

	// The root leaves (t, n), class, CAS and offsets out, and keeps
	// order and sizes in.
	moved := v2Record().Chunks
	moved[0].T, moved[0].N, moved[0].Class, moved[0].CAS = 3, 8, "archive", true
	moved[1].Offset = 99
	if ChunkListID(moved) != v2FileID {
		t.Fatal("chunk-list root depends on encoding parameters or offsets")
	}
	swapped := v2Record().Chunks
	swapped[0], swapped[1] = swapped[1], swapped[0]
	resized := v2Record().Chunks
	resized[1].Size++
	for name, cs := range map[string][]ChunkRef{"reordered": swapped, "resized": resized, "truncated": v2Record().Chunks[:1]} {
		if ChunkListID(cs) == v2FileID {
			t.Errorf("%s chunk list keeps the root", name)
		}
	}
}

// TestDecodeRejectsUnknownVersion checks the decoder accepts exactly
// versions 1 and 2, and Encode refuses a record of an unknown format.
func TestDecodeRejectsUnknownVersion(t *testing.T) {
	golden, err := hex.DecodeString(v2RecordHex)
	if err != nil {
		t.Fatalf("bad fixture hex: %v", err)
	}
	for _, v := range []byte{0, 3, 255} {
		bad := append([]byte(nil), golden...)
		bad[4] = v
		if _, err := Decode(bad); !errors.Is(err, ErrBadRecord) {
			t.Errorf("version %d: Decode err = %v, want ErrBadRecord", v, err)
		}
	}
	for _, f := range []int{0, 3} {
		m := v2Record()
		m.Format = f
		if _, err := Encode(m); err == nil {
			t.Errorf("Encode accepted format %d", f)
		}
	}
}

// TestCodecClassRoundTrip checks class-bearing chunks survive the codec,
// coexisting with the CAS flag, and that the class flag costs nothing on
// classless chunks.
func TestCodecClassRoundTrip(t *testing.T) {
	m := legacyRecord()
	m.Chunks[0].Class = "cold"
	m.Chunks[1].Class = "archive-9"
	data, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if dec.Chunks[0].Class != "cold" || dec.Chunks[1].Class != "archive-9" {
		t.Fatalf("classes did not round-trip: %q, %q", dec.Chunks[0].Class, dec.Chunks[1].Class)
	}
	if !dec.Chunks[1].CAS {
		t.Fatal("CAS flag lost when combined with class flag")
	}
	if dec.Chunks[0].T != 2 || dec.Chunks[1].T != 2 {
		t.Fatalf("t corrupted by flag bits: %d, %d", dec.Chunks[0].T, dec.Chunks[1].T)
	}

	// The only growth over the classless encoding is the two class strings
	// plus their length prefixes.
	classless, err := Encode(legacyRecord())
	if err != nil {
		t.Fatalf("Encode classless: %v", err)
	}
	want := len(classless) + 2 + len("cold") + 2 + len("archive-9")
	if len(data) != want {
		t.Fatalf("class encoding size %d, want %d", len(data), want)
	}
}

// TestEncodingKey covers the composite-key mapping the chunk table and GC
// rely on: default class keys as the bare ID, named classes round-trip.
func TestEncodingKey(t *testing.T) {
	if got := EncodingKey("abc", ""); got != "abc" {
		t.Fatalf("EncodingKey(abc, \"\") = %q", got)
	}
	key := EncodingKey("abc", "cold")
	if key == "abc" || !strings.HasPrefix(key, "abc") {
		t.Fatalf("EncodingKey(abc, cold) = %q", key)
	}
	id, class := SplitEncodingKey(key)
	if id != "abc" || class != "cold" {
		t.Fatalf("SplitEncodingKey(%q) = %q, %q", key, id, class)
	}
	id, class = SplitEncodingKey("abc")
	if id != "abc" || class != "" {
		t.Fatalf("SplitEncodingKey(abc) = %q, %q", id, class)
	}
}

// TestChunkTableEncodings checks the table keeps hot and cold encodings of
// one chunk apart: dedup lookups are class-scoped and releasing one
// encoding leaves the other stored.
func TestChunkTableEncodings(t *testing.T) {
	tbl := NewChunkTable()
	hot := ChunkRef{ID: "c1", Size: 100, T: 2, N: 4}
	cold := ChunkRef{ID: "c1", Size: 100, T: 3, N: 8, Class: "cold"}
	tbl.AddVersionRef(hot, []ShareLoc{{ChunkID: "c1", Index: 0, CSP: "a"}}, "v1")
	tbl.AddVersionRef(cold, []ShareLoc{{ChunkID: "c1", Index: 0, CSP: "b"}}, "v2")

	if tbl.Len() != 2 {
		t.Fatalf("Len = %d, want 2 encodings", tbl.Len())
	}
	h, ok := tbl.LookupEnc("c1", "")
	if !ok || h.T != 2 || h.N != 4 || h.Class != "" {
		t.Fatalf("hot lookup = %+v, %v", h, ok)
	}
	c, ok := tbl.LookupEnc("c1", "cold")
	if !ok || c.T != 3 || c.N != 8 || c.Class != "cold" {
		t.Fatalf("cold lookup = %+v, %v", c, ok)
	}
	if _, ok := tbl.LookupEnc("c1", "archive"); ok {
		t.Fatal("lookup under an unwritten class must miss")
	}
	if !tbl.StoredEnc("c1", "cold") || !tbl.Stored("c1") {
		t.Fatal("StoredEnc/Stored miss for present encodings")
	}

	if !tbl.MoveShareEnc("c1", "cold", 0, "c") {
		t.Fatal("MoveShareEnc failed")
	}
	c, _ = tbl.LookupEnc("c1", "cold")
	if c.Shares[0] != "c" {
		t.Fatalf("cold share not moved: %v", c.Shares)
	}
	h, _ = tbl.LookupEnc("c1", "")
	if h.Shares[0] != "a" {
		t.Fatalf("hot share moved by a cold-class MoveShare: %v", h.Shares)
	}

	if _, gone := tbl.Release(EncodingKey("c1", "cold")); !gone {
		t.Fatal("cold encoding should release to zero")
	}
	if !tbl.Stored("c1") {
		t.Fatal("releasing the cold encoding dropped the hot one")
	}

	ents := tbl.Entries()
	if len(ents) != 1 || ents[0].ID != "c1" || ents[0].Class != "" {
		t.Fatalf("Entries after release = %+v", ents)
	}
}

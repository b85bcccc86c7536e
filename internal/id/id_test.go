package id

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func quickCfg(seed int64) *quick.Config {
	return &quick.Config{
		MaxCount: 2000,
		Rand:     rand.New(rand.NewSource(seed)),
	}
}

func TestFromUint64(t *testing.T) {
	cases := []struct {
		v    uint64
		want string
	}{
		{0, "0000000000000000000000000000000000000000"},
		{1, "0000000000000000000000000000000000000001"},
		{0xdeadbeef, "00000000000000000000000000000000deadbeef"},
		{^uint64(0), "000000000000000000000000ffffffffffffffff"},
	}
	for _, c := range cases {
		if got := FromUint64(c.v).String(); got != c.want {
			t.Errorf("FromUint64(%#x) = %s, want %s", c.v, got, c.want)
		}
	}
}

func TestParseHexRoundTrip(t *testing.T) {
	x := HashString("hello")
	parsed, err := ParseHex(x.String())
	if err != nil {
		t.Fatalf("ParseHex: %v", err)
	}
	if parsed != x {
		t.Fatalf("round trip mismatch: %s vs %s", parsed, x)
	}
}

func TestParseHexErrors(t *testing.T) {
	if _, err := ParseHex("abc"); err == nil {
		t.Error("short input: want error")
	}
	if _, err := ParseHex("zz00000000000000000000000000000000000000"); err == nil {
		t.Error("non-hex input: want error")
	}
}

func TestMarshalText(t *testing.T) {
	x := HashString("marshal")
	b, err := x.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var y ID
	if err := y.UnmarshalText(b); err != nil {
		t.Fatal(err)
	}
	if x != y {
		t.Fatalf("text round trip mismatch: %s vs %s", x, y)
	}
	if err := y.UnmarshalText([]byte("nope")); err == nil {
		t.Error("UnmarshalText of garbage: want error")
	}
}

func TestHashDeterministic(t *testing.T) {
	if HashString("a") != HashString("a") {
		t.Error("HashString not deterministic")
	}
	if HashString("a") == HashString("b") {
		t.Error("distinct inputs collided (vanishingly unlikely)")
	}
}

func TestCmp(t *testing.T) {
	a, b := FromUint64(5), FromUint64(9)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Errorf("Cmp ordering wrong: %d %d %d", a.Cmp(b), b.Cmp(a), a.Cmp(a))
	}
	if !a.Less(b) || b.Less(a) {
		t.Error("Less inconsistent with Cmp")
	}
	if !a.Equal(a) || a.Equal(b) {
		t.Error("Equal inconsistent")
	}
}

func TestIsZero(t *testing.T) {
	var z ID
	if !z.IsZero() {
		t.Error("zero value should be zero")
	}
	if FromUint64(1).IsZero() {
		t.Error("1 should not be zero")
	}
}

func TestAddSubSmall(t *testing.T) {
	a, b := FromUint64(300), FromUint64(45)
	if got := Add(a, b); got != FromUint64(345) {
		t.Errorf("Add = %s", got.Short())
	}
	if got := Sub(a, b); got != FromUint64(255) {
		t.Errorf("Sub = %s", got.Short())
	}
}

func TestAddWrapsAround(t *testing.T) {
	// maxID + 1 == 0
	var max ID
	for i := range max {
		max[i] = 0xff
	}
	if got := Add(max, FromUint64(1)); !got.IsZero() {
		t.Errorf("max+1 = %s, want 0", got)
	}
	// 0 - 1 == maxID
	if got := Sub(ID{}, FromUint64(1)); got != max {
		t.Errorf("0-1 = %s, want all-ff", got)
	}
}

func TestAddPow2(t *testing.T) {
	base := FromUint64(100)
	if got := AddPow2(base, 0); got != FromUint64(101) {
		t.Errorf("base+2^0 = %s", got)
	}
	if got := AddPow2(base, 10); got != FromUint64(100+1024) {
		t.Errorf("base+2^10 = %s", got)
	}
	// Highest bit: adding 2^159 twice returns to the original.
	h := AddPow2(base, Bits-1)
	if h == base {
		t.Fatal("base+2^159 should differ from base")
	}
	if got := AddPow2(h, Bits-1); got != base {
		t.Errorf("adding 2^159 twice should be identity, got %s", got)
	}
}

func TestAddPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddPow2 with k >= Bits should panic")
		}
	}()
	AddPow2(ID{}, Bits)
}

func TestBetweenNoWrap(t *testing.T) {
	a, b := FromUint64(10), FromUint64(20)
	if !Between(FromUint64(15), a, b) {
		t.Error("15 in (10,20) should hold")
	}
	if Between(FromUint64(10), a, b) || Between(FromUint64(20), a, b) {
		t.Error("endpoints excluded from open interval")
	}
	if Between(FromUint64(25), a, b) {
		t.Error("25 not in (10,20)")
	}
}

func TestBetweenWrap(t *testing.T) {
	a, b := FromUint64(1000), FromUint64(5)
	if !Between(FromUint64(2000), a, b) || !Between(FromUint64(2), a, b) {
		t.Error("wrap interval membership failed")
	}
	if Between(FromUint64(500), a, b) {
		t.Error("500 not in wrapped (1000,5)")
	}
}

func TestBetweenDegenerate(t *testing.T) {
	a := FromUint64(7)
	if Between(a, a, a) {
		t.Error("(a,a) excludes a")
	}
	if !Between(FromUint64(8), a, a) {
		t.Error("(a,a) includes everything else")
	}
}

func TestInOpenClosed(t *testing.T) {
	a, b := FromUint64(10), FromUint64(20)
	if !InOpenClosed(FromUint64(20), a, b) {
		t.Error("right endpoint included")
	}
	if InOpenClosed(FromUint64(10), a, b) {
		t.Error("left endpoint excluded")
	}
	// Degenerate interval covers the whole ring (single-node Chord ring).
	if !InOpenClosed(FromUint64(999), a, a) || !InOpenClosed(a, a, a) {
		t.Error("(a,a] should cover the whole ring")
	}
}

func TestInClosedOpen(t *testing.T) {
	a, b := FromUint64(10), FromUint64(20)
	if !InClosedOpen(FromUint64(10), a, b) {
		t.Error("left endpoint included")
	}
	if InClosedOpen(FromUint64(20), a, b) {
		t.Error("right endpoint excluded")
	}
	if !InClosedOpen(FromUint64(3), FromUint64(100), FromUint64(7)) {
		t.Error("wrapped [100,7) should include 3")
	}
	if !InClosedOpen(a, a, a) {
		t.Error("[a,a) degenerate covers whole ring")
	}
}

// randID builds an ID from three uint64 lanes so quick can generate them.
func randID(a, b, c uint64) ID {
	var x ID
	for i := 0; i < 8; i++ {
		x[Size-1-i] = byte(a >> (8 * i))
		x[Size-9-i] = byte(b >> (8 * i))
	}
	for i := 0; i < 4; i++ {
		x[3-i] = byte(c >> (8 * i))
	}
	return x
}

func TestQuickAddMatchesBig(t *testing.T) {
	mod := new(big.Int).Lsh(big.NewInt(1), Bits)
	f := func(a1, a2, a3, b1, b2, b3 uint64) bool {
		x, y := randID(a1, a2, a3), randID(b1, b2, b3)
		want := FromBig(new(big.Int).Mod(new(big.Int).Add(x.ToBig(), y.ToBig()), mod))
		return Add(x, y) == want
	}
	if err := quick.Check(f, quickCfg(1)); err != nil {
		t.Error(err)
	}
}

func TestQuickSubMatchesBig(t *testing.T) {
	f := func(a1, a2, a3, b1, b2, b3 uint64) bool {
		x, y := randID(a1, a2, a3), randID(b1, b2, b3)
		want := FromBig(new(big.Int).Sub(x.ToBig(), y.ToBig()))
		return Sub(x, y) == want
	}
	if err := quick.Check(f, quickCfg(2)); err != nil {
		t.Error(err)
	}
}

func TestQuickAddSubInverse(t *testing.T) {
	f := func(a1, a2, a3, b1, b2, b3 uint64) bool {
		x, y := randID(a1, a2, a3), randID(b1, b2, b3)
		return Sub(Add(x, y), y) == x && Add(Sub(x, y), y) == x
	}
	if err := quick.Check(f, quickCfg(3)); err != nil {
		t.Error(err)
	}
}

func TestQuickAddPow2MatchesBig(t *testing.T) {
	f := func(a1, a2, a3 uint64, kRaw uint8) bool {
		x := randID(a1, a2, a3)
		k := uint(kRaw) % Bits
		p := new(big.Int).Lsh(big.NewInt(1), k)
		want := FromBig(new(big.Int).Add(x.ToBig(), p))
		return AddPow2(x, k) == want
	}
	if err := quick.Check(f, quickCfg(4)); err != nil {
		t.Error(err)
	}
}

func TestQuickDistAntisymmetry(t *testing.T) {
	// dist(x,y) + dist(y,x) == 0 (mod 2^160) unless x == y.
	f := func(a1, a2, a3, b1, b2, b3 uint64) bool {
		x, y := randID(a1, a2, a3), randID(b1, b2, b3)
		s := Add(Dist(x, y), Dist(y, x))
		return s.IsZero()
	}
	if err := quick.Check(f, quickCfg(5)); err != nil {
		t.Error(err)
	}
}

func TestQuickBetweenTrichotomy(t *testing.T) {
	// For distinct a, b and v not an endpoint: v is in exactly one of
	// (a, b) and (b, a).
	f := func(a1, a2, a3, b1, b2, b3, c1, c2, c3 uint64) bool {
		a, b := randID(a1, a2, a3), randID(b1, b2, b3)
		v := randID(c1, c2, c3)
		if a == b || v == a || v == b {
			return true
		}
		return Between(v, a, b) != Between(v, b, a)
	}
	if err := quick.Check(f, quickCfg(6)); err != nil {
		t.Error(err)
	}
}

func TestQuickIntervalConsistency(t *testing.T) {
	// (a,b] == (a,b) ∪ {b};  [a,b) == (a,b) ∪ {a}  for a != b.
	f := func(a1, a2, a3, b1, b2, b3, c1, c2, c3 uint64) bool {
		a, b := randID(a1, a2, a3), randID(b1, b2, b3)
		v := randID(c1, c2, c3)
		if a == b {
			return true
		}
		oc := InOpenClosed(v, a, b) == (Between(v, a, b) || v == b)
		co := InClosedOpen(v, a, b) == (Between(v, a, b) || v == a)
		return oc && co
	}
	if err := quick.Check(f, quickCfg(7)); err != nil {
		t.Error(err)
	}
}

func TestBitLenMatchesBig(t *testing.T) {
	var ones ID
	for i := range ones {
		ones[i] = 0xff
	}
	cases := []ID{{}, FromUint64(1), FromUint64(2), AddPow2(ID{}, Bits-1), ones}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		x := Rand(rng)
		// Shift right by a random amount so every bit length shows up,
		// not only the 159 and 160 of uniform identifiers.
		cases = append(cases, FromBig(new(big.Int).Rsh(x.ToBig(), uint(rng.Intn(Bits+1)))))
	}
	for _, x := range cases {
		if got, want := x.BitLen(), x.ToBig().BitLen(); got != want {
			t.Fatalf("BitLen(%s) = %d, want %d", x, got, want)
		}
	}
}

func TestQuickRandInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	seen := map[ID]bool{}
	for i := 0; i < 64; i++ {
		seen[Rand(rng)] = true
	}
	if len(seen) != 64 {
		t.Errorf("Rand produced duplicates: %d unique of 64", len(seen))
	}
}

func BenchmarkAdd(b *testing.B) {
	x, y := HashString("x"), HashString("y")
	for i := 0; i < b.N; i++ {
		x = Add(x, y)
	}
	_ = x
}

func BenchmarkBetween(b *testing.B) {
	x, y, v := HashString("x"), HashString("y"), HashString("v")
	for i := 0; i < b.N; i++ {
		_ = Between(v, x, y)
	}
}

package bitstr

import "testing"

// mustPanic asserts f panics.
func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestPanicGuards(t *testing.T) {
	root := Root()
	deep := Addr{Level: MaxLevel, Index: 0}
	mustPanic(t, "Bit out of range", func() { root.Bit(0) })
	mustPanic(t, "Bit negative", func() { MustParse("01").Bit(-1) })
	mustPanic(t, "Child too deep", func() { deep.Child(0) })
	mustPanic(t, "Parent of root", func() { root.Parent() })
	mustPanic(t, "Append too deep", func() { deep.Append(MustParse("1")) })
	mustPanic(t, "Prefix out of range", func() { MustParse("01").Prefix(3) })
	mustPanic(t, "Prefix negative", func() { MustParse("01").Prefix(-1) })
	mustPanic(t, "FromID negative", func() { FromID(-1) })
	mustPanic(t, "MustParse invalid", func() { MustParse("10x") })
}

func TestParseTooLong(t *testing.T) {
	long := make([]byte, MaxLevel+1)
	for i := range long {
		long[i] = '0'
	}
	if _, err := Parse(string(long)); err == nil {
		t.Error("overlong string accepted")
	}
}

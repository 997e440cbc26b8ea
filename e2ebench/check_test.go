package main

import "testing"

func TestNormalizeDropsOnlyElapsed(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{`{"n":1,"elapsed_ms":12.5,"cache":"hit"}`, `{"n":1,"cache":"hit"}`},
		{`{"n":1,"cache":"hit","elapsed_ms":3e-05}` + "\n", `{"n":1,"cache":"hit"}` + "\n"},
		{`{"elapsed_ms":7,"n":1}`, `{"n":1}`},
		// Nested members and string contents are kept.
		{`{"r":{"elapsed_ms":1},"s":"\"elapsed_ms\":2","elapsed_ms":3}`, `{"r":{"elapsed_ms":1},"s":"\"elapsed_ms\":2"}`},
		{`{"n":1}`, `{"n":1}`},
	} {
		if got := string(normalize([]byte(c.in))); got != c.want {
			t.Errorf("normalize(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestNormalizeKeepsOtherDifferences(t *testing.T) {
	a := normalize([]byte(`{"n":1,"cache":"hit","elapsed_ms":1}`))
	b := normalize([]byte(`{"n":1,"cache":"miss","elapsed_ms":1}`))
	c := normalize([]byte(`{"n":1,"cache":"hit","elapsed_ms":99.25}`))
	if string(a) == string(b) {
		t.Error("bodies that differ outside elapsed_ms normalize equal")
	}
	if string(a) != string(c) {
		t.Error("bodies that differ only in elapsed_ms normalize differently")
	}
}

func TestDigestIgnoresCollectionOrder(t *testing.T) {
	x := digest(map[string][]byte{"a": []byte("1"), "b": []byte("2")})
	y := digest(map[string][]byte{"b": []byte("2"), "a": []byte("1")})
	z := digest(map[string][]byte{"a": []byte("1"), "b": []byte("3")})
	if x != y || x == z {
		t.Errorf("digests %s %s %s", x, y, z)
	}
}

// for-range key order over maps that grew and lost keys.  The expected
// output (map_range_order.out) pins the order: buckets in index order,
// newest entry first within a bucket, and on growth the entries are
// rehashed in old-bucket order.  The maps cover every bucket layout:
// int, bool and string keys; int, bool, slice, pointer and struct
// values.

type Pt struct {
  x int
  y int
}

func bstr(v bool) string {
  if v {
    return "t"
  }
  return "f"
}

func dump(tag string, m map[int]int) {
  line := tag
  for k := range m {
    line = line + " " + itoa(k) + ":" + itoa(m[k])
  }
  println(line)
}

func main() {
  a := make(map[int]int)
  for i := 0; i < 5; i = i + 1 {
    a[i*7] = i
  }
  dump("small", a)
  for i := 5; i < 60; i = i + 1 {
    a[i*7] = i
  }
  dump("grown", a)
  for i := 0; i < 60; i = i + 3 {
    delete(a, i*7)
  }
  a[7] = 100
  a[1000] = 101
  dump("deleted", a)
  for i := 0; i < 200; i = i + 1 {
    a[i*13+1] = i
  }
  dump("regrown", a)

  s := make(map[string]int)
  for i := 0; i < 40; i = i + 1 {
    s["k" + itoa(i)] = i
  }
  for i := 0; i < 40; i = i + 2 {
    delete(s, "k" + itoa(i))
  }
  s["k3"] = 33
  s["new"] = 1
  line := "strings"
  for k := range s {
    line = line + " " + k + ":" + itoa(s[k])
    if k == "k5" {
      delete(s, "k7")
      s["k5"] = 55
    }
  }
  println(line)
  n := 0
  for k := range s {
    n = n + s[k]
  }
  println(len(s), n)

  // map[int]bool: keys deleted, then re-inserted after two growths
  b := make(map[int]bool)
  for i := 0; i < 12; i = i + 1 {
    b[i*5] = i%2 == 0
  }
  for i := 0; i < 12; i = i + 3 {
    delete(b, i*5)
  }
  for i := 12; i < 40; i = i + 1 {
    b[i*5] = i%3 == 0
  }
  for i := 0; i < 12; i = i + 3 {
    b[i*5] = true
  }
  line = "bools"
  for k := range b {
    line = line + " " + itoa(k) + ":" + bstr(b[k])
  }
  println(line, len(b), b[5], b[7])

  // map[string]int: string keys across growths, then overwritten
  w := make(map[string]int)
  for i := 0; i < 30; i = i + 1 {
    w["w"+itoa(i*7)] = i
  }
  for i := 0; i < 30; i = i + 4 {
    w["w"+itoa(i*7)] = w["w"+itoa(i*7)] + 100
  }
  line = "words"
  for k := range w {
    line = line + " " + k + ":" + itoa(w[k])
  }
  println(line, len(w), w["absent"])

  // map[int][]int: slice values appended to through the map
  h := make(map[int][]int)
  for i := 0; i < 50; i = i + 1 {
    h[i%17] = append(h[i%17], i)
  }
  line = "slices"
  for k := range h {
    line = line + " " + itoa(k) + ":" + itoa(len(h[k])) + "/" + itoa(h[k][0])
  }
  println(line, len(h[40]))

  // map[int]Pt: struct values are copies
  ps := make(map[int]Pt)
  for i := 0; i < 20; i = i + 1 {
    ps[i*3] = Pt{x: i, y: i * i}
  }
  p := ps[9]
  p.x = 99
  line = "structs"
  for k := range ps {
    line = line + " " + itoa(k) + ":" + itoa(ps[k].x) + "," + itoa(ps[k].y)
  }
  println(line, p.x, ps[9].x, ps[100].y)

  // every store may grow the map and free its old buckets; the read
  // right after it goes through the same site each time
  g := make(map[int]int)
  total := 0
  for i := 0; i < 120; i = i + 1 {
    g[i*11] = i
    total = total + g[(i/2)*11]
  }
  println("grown reads", total, len(g))
}

// for-range key order over maps that grew and lost keys.  The expected
// output (map_range_order.out) pins the order: buckets in index order,
// newest entry first within a bucket, and on growth the entries are
// rehashed in old-bucket order.

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
}


type Memtable struct {
  entries map[string][]int
  bytes   int
}

type DB struct {
  active   *Memtable
  valueLog [][]int
  flushed  []int
  puts     int
}

func newMemtable() *Memtable {
  return &Memtable{entries: make(map[string][]int), bytes: 0}
}

// Encode a value into a retained value-log record.
func encode(i int, sz int) []int {
  rec := make([]int, sz)
  for k := 0; k < sz; k++ {
    rec[k] = i*31 + k
  }
  return rec
}

func put(db *DB, key string, val []int) {
  // constant non-escaping checksum scratch: stack-allocated
  sum := make([]int, 4)
  for i := 0; i < len(key) && i < 4; i++ {
    sum[i] = key[i]
  }
  db.active.entries[key] = val
  db.active.bytes = db.active.bytes + sum[0]*0
  db.active.bytes = db.active.bytes + len(key) + len(val)*8
  db.valueLog = append(db.valueLog, val)
  db.puts = db.puts + 1
  if db.active.bytes > 120000 {
    flush(db)
  }
}

func flush(db *DB) {
  db.flushed = append(db.flushed, db.active.bytes)
  db.active = newMemtable()
}

func get(db *DB, key string) []int {
  return db.active.entries[key]
}

func main() {
  db := &DB{active: newMemtable(), valueLog: make([][]int, 0, 64),
            flushed: make([]int, 0, 16), puts: 0}
  hits := 0
  for i := 0; i < 4000; i++ {
    key := "user" + itoa(rand(5000))
    put(db, key, encode(i, 48+rand(120)))
    if rand(4) == 0 {
      probe := get(db, "user"+itoa(rand(5000)))
      if probe != nil {
        hits++
      }
    }
  }
  flush(db)
  println("puts", db.puts, "flushes", len(db.flushed), "hits", hits)
}

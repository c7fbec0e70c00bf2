type t = {
  mutable data : int array array;  (* data.(b): values queued at priority origin+b *)
  mutable len : int array;         (* fill of each bucket *)
  mutable head : int array;        (* next entry to pop; FIFO within a bucket *)
  mutable words : int array;       (* occupancy bitmap, [bpw] buckets per word *)
  mutable origin : int;            (* priority mapped to bucket 0 *)
  mutable cursor : int;            (* no occupied bucket strictly below this index *)
  mutable hi : int;                (* no occupied bucket strictly above this index *)
  mutable size : int;
  mutable touched : int array;     (* buckets that went 0 -> nonempty since clear *)
  mutable ntouched : int;
  mutable seeded : bool;           (* [origin] is valid *)
  mutable npush : int;
  mutable last : int;              (* priority of the last popped entry *)
}

let bpw = 63

(* Bit position of an isolated bit (a power of two), via a de Bruijn
   multiply — replaces a shift loop of up to [bpw] iterations on every
   pop. The table is built from the same multiply it serves, so the
   encoding cannot drift from the lookup. *)
let debruijn = 0x03f79d71b4ca8b09

let ctz_table =
  let t = Array.make 64 0 in
  for bit = 0 to 62 do
    t.(((1 lsl bit) * debruijn) lsr 57 land 63) <- bit
  done;
  t

let bit_index isolated = ctz_table.((isolated * debruijn) lsr 57 land 63)

(* Latching [origin] this far below the first push leaves room for the
   slightly-cheaper entries that typically follow it (seeding pushes
   arrive in arbitrary priority order), so the below-origin realloc
   path stays exceptional. *)
let origin_slack = 128

let create ?(capacity = 1024) () =
  let cap = max 64 capacity in
  {
    data = Array.make cap [||];
    len = Array.make cap 0;
    head = Array.make cap 0;
    words = Array.make ((cap + bpw - 1) / bpw) 0;
    origin = 0;
    cursor = 0;
    hi = 0;
    size = 0;
    touched = Array.make 64 0;
    ntouched = 0;
    seeded = false;
    npush = 0;
    last = 0;
  }

let is_empty t = t.size = 0
let size t = t.size
let pushes t = t.npush
let last_prio t = t.last

let note_touched t b =
  if t.ntouched = Array.length t.touched then begin
    let a = Array.make (2 * t.ntouched) 0 in
    Array.blit t.touched 0 a 0 t.ntouched;
    t.touched <- a
  end;
  t.touched.(t.ntouched) <- b;
  t.ntouched <- t.ntouched + 1

(* Reallocate so at least [nbuckets] bucket slots exist, shifting every
   live bucket up by [shift] slots (used to lower [origin]). [nbuckets]
   must be derived from [t.hi], the top of the occupied span — never
   from the current capacity, which would compound geometrically across
   calls. *)
let realloc t ~nbuckets ~shift =
  let cap = ref (Array.length t.len) in
  while !cap < nbuckets do cap := !cap * 2 done;
  let data = Array.make !cap [||]
  and len = Array.make !cap 0
  and head = Array.make !cap 0 in
  let live = min (Array.length t.data) (!cap - shift) in
  Array.blit t.data 0 data shift live;
  Array.blit t.len 0 len shift live;
  Array.blit t.head 0 head shift live;
  let words = Array.make ((!cap + bpw - 1) / bpw) 0 in
  for b = 0 to !cap - 1 do
    if len.(b) > head.(b) then
      words.(b / bpw) <- words.(b / bpw) lor (1 lsl (b mod bpw))
  done;
  for k = 0 to t.ntouched - 1 do
    t.touched.(k) <- t.touched.(k) + shift
  done;
  t.data <- data;
  t.len <- len;
  t.head <- head;
  t.words <- words;
  t.origin <- t.origin - shift;
  t.cursor <- t.cursor + shift;
  t.hi <- t.hi + shift

let prepare t ~origin =
  if not t.seeded then begin
    t.origin <- origin;
    t.seeded <- true;
    t.cursor <- 0;
    t.hi <- 0
  end

let push t ~prio ~value =
  if not t.seeded then begin
    t.origin <- prio - origin_slack;
    t.seeded <- true;
    t.cursor <- 0;
    t.hi <- 0
  end;
  if prio < t.origin then
    realloc t
      ~nbuckets:(t.hi + 1 + (t.origin - prio) + 64)
      ~shift:(t.origin - prio + 64);
  let b = prio - t.origin in
  if b >= Array.length t.len then realloc t ~nbuckets:(b + 1) ~shift:0;
  let l = t.len.(b) in
  let bucket = t.data.(b) in
  let bucket =
    if l < Array.length bucket then bucket
    else begin
      let nb = Array.make (max 4 (2 * l)) 0 in
      Array.blit bucket 0 nb 0 l;
      t.data.(b) <- nb;
      nb
    end
  in
  bucket.(l) <- value;
  t.len.(b) <- l + 1;
  if l = 0 then begin
    t.words.(b / bpw) <- t.words.(b / bpw) lor (1 lsl (b mod bpw));
    note_touched t b
  end;
  if b < t.cursor then t.cursor <- b;
  if b > t.hi then t.hi <- b;
  t.size <- t.size + 1;
  t.npush <- t.npush + 1

(* First occupied bucket at word [w] or above, given [cur] = word [w]'s
   occupancy masked below the cursor. Top-level and tail-recursive so
   the pop scan neither allocates a closure nor boxes scan state in
   refs — pop runs on the A* hot path and must be allocation-free. *)
let rec first_bucket words w cur =
  if cur <> 0 then (w * bpw) + bit_index (cur land (-cur))
  else first_bucket words (w + 1) words.(w + 1)

let pop t =
  if t.size = 0 then invalid_arg "Bqueue.pop: empty";
  let w0 = t.cursor / bpw in
  let b =
    first_bucket t.words w0
      (t.words.(w0) land ((-1) lsl (t.cursor mod bpw)))
  in
  t.cursor <- b;
  let w = b / bpw in
  let low = 1 lsl (b mod bpw) in
  let h = t.head.(b) in
  let v = t.data.(b).(h) in
  if h + 1 = t.len.(b) then begin
    (* drained: reset so push's [l = 0] emptiness test stays valid *)
    t.head.(b) <- 0;
    t.len.(b) <- 0;
    t.words.(w) <- t.words.(w) land lnot low
  end
  else t.head.(b) <- h + 1;
  t.size <- t.size - 1;
  t.last <- t.origin + b;
  v

let clear t =
  for k = 0 to t.ntouched - 1 do
    let b = t.touched.(k) in
    t.len.(b) <- 0;
    t.head.(b) <- 0;
    t.words.(b / bpw) <- t.words.(b / bpw) land lnot (1 lsl (b mod bpw))
  done;
  t.ntouched <- 0;
  t.size <- 0;
  t.cursor <- 0;
  t.hi <- 0;
  t.seeded <- false

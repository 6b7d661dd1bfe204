(* Hash-consed ROBDDs with dynamic variable ordering, over a flat node
   store.

   A node is an integer id into its manager's store, which holds three
   ints per node: the variable index, the low child's id and the high
   child's id.  Ids 0 and 1 are the leaves false and true.
   The recursions below run on ids alone, so a step allocates nothing on
   the OCaml heap and the collector never sees a node; only the result of
   a public operation is boxed, in a small handle ([t]) that names its
   manager.

   The manager carries the order as a pair of permutation arrays
   ([perm] : var → level, [invperm] : level → var).  Canonicity
   invariant: no node has [low = high], every (var, low, high) triple is
   hash-consed, and on every path the levels [perm.(var)] strictly
   increase — so semantic equality is id equality {e in whatever order
   the manager currently has}.

   Reordering (Rudell sifting over adjacent-level swaps) rewrites store
   entries in place: a swapped node keeps its id and its semantics, only
   its var/low/high ints change.  Handles held across a reorder therefore
   stay valid, and the op-cache — which is keyed on ids and caches
   {e functions of functions} — stays correct without being flushed. *)

(* Engine counters (per-context, aggregated over every manager).  The
   five hottest — op-cache hits, misses and stores, nodes created and
   the node peak — are bumped in plain manager fields on the recursion
   path and flushed into the context when the outermost public operation
   returns or unwinds (see [leave]); the others are rare and go straight
   to the context.  `kpt stats` and perfbench snapshot them
   between operations, so they never see the difference. *)
let c_hit = Kpt_obs.counter "bdd.op_cache.hits"
let c_miss = Kpt_obs.counter "bdd.op_cache.misses"
let c_store = Kpt_obs.counter "bdd.op_cache.stores"
let c_op_grow = Kpt_obs.counter "bdd.op_cache.grows"
let c_spill = Kpt_obs.counter "bdd.op_cache.spills"
let c_node = Kpt_obs.counter "bdd.nodes.created"
let c_peak = Kpt_obs.counter "bdd.nodes.peak"
let c_uq_grow = Kpt_obs.counter "bdd.unique.grows"
let c_ro_runs = Kpt_obs.counter "bdd.reorder.runs"
let c_ro_swaps = Kpt_obs.counter "bdd.reorder.swaps"
let c_ro_saved = Kpt_obs.counter "bdd.reorder.nodes_saved"
let c_gc_runs = Kpt_obs.counter "bdd.gc.runs"
let c_gc_freed = Kpt_obs.counter "bdd.gc.freed"

(* Both manager tables are packed: each entry's key is one native int
   encoding the operands bit-by-bit, stored next to its payload (a node
   id) in two parallel [int] arrays.  Packing is exact — two keys are
   equal iff the operand pairs are equal — so a probe is a single
   load-and-compare and allocates nothing.

   The unique table is split into one packed subtable {e per variable}
   (CUDD's layout): an adjacent-level swap then only touches the two
   subtables of the swapped variables, leaving every other node where it
   is.  Within a subtable the key packs the child ids (low:31 | high:31
   bits), which holds every id: [take_id] fails before an id reaches
   2^31.  Key 0 would mean (false, false) children, i.e. a node with
   [low = high], which [mk] never stores — so 0 is free as the
   empty-slot sentinel.

   The operation cache is CUDD-style direct-mapped: collisions overwrite
   (the cache is lossy — dropping an entry only costs a recomputation). *)
type subtable = {
  mutable s_count : int; (* entries *)
  mutable s_key : int array; (* 0 = empty slot *)
  mutable s_node : int array;
}

type manager = {
  mutable store : Bytes.t; (* node id i at byte 12i: var, low, high as int32 *)
  mutable next_uid : int; (* ids handed out so far: the store's high-water mark *)
  mutable free : int; (* head of the free-id list, threaded through low; -1 = empty *)
  mutable created : int; (* nodes created over the lifetime, leaves included *)
  mutable nvars : int; (* registered variables: 0 .. nvars-1 *)
  mutable perm : int array; (* var → level (length ≥ nvars) *)
  mutable invperm : int array; (* level → var *)
  mutable subs : subtable array; (* indexed by var *)
  mutable live : int; (* total unique-table entries *)
  op_cap : int; (* maximum op-cache slot count (power of two) *)
  mutable op_stores : int; (* misses stored since the last grow/clear *)
  mutable op_mask : int;
  mutable op_key : int array; (* 0 = empty slot *)
  mutable op_res : int array;
  op_spill : (int * int * int * int, int) Hashtbl.t; (* ids beyond packing *)
  h_true : t;
  h_false : t;
  mutable hcache : t array; (* recent handles, direct-mapped by id *)
  (* the root set of [collect]: every handle handed out is held strongly
     in [recent] until the next sweep (or until [recent] is full), then
     weakly in [log] *)
  mutable recent : t array;
  mutable recent_len : int;
  mutable log : t Weak.t;
  mutable log_len : int;
  (* dynamic-reordering state *)
  mutable auto_reorder : bool;
  mutable reorder_threshold : int; (* [live] at which the next outermost entry sifts *)
  mutable op_depth : int; (* public operations in flight *)
  mutable in_reorder : bool;
  mutable ro_mark : int; (* next_uid at reorder entry; max_int outside *)
  mutable ro_excess : int; (* logically dead nodes still in the table *)
  mutable ro_free : int; (* evicted transients, reused only inside the sift; -1 = empty *)
  mutable ro_lrc : int array; (* id → logical refcount (0 = dead, -1 = none) *)
  mutable ro_prc : int array; (* transient id → physical refcount *)
  (* hot counters not yet flushed into [Kpt_obs] *)
  mutable k_hits : int;
  mutable k_misses : int;
  mutable k_stores : int;
  mutable k_nodes : int;
}

and t = { id : int; m : manager }

let sub_key lo hi = (lo lsl 31) lor hi
let uid_limit = 1 lsl 20

(* Packed op-cache key: tag:3 | x:20 | y:20 | z:20 bits.  Zero would need
   tag = op_and with x = y = z = 0, i.e. and(false, false) — a terminal
   case that is never cached, so 0 is free as the empty-slot sentinel. *)
let op_key tag x y z = (((((tag lsl 20) lor x) lsl 20) lor y) lsl 20) lor z
let op_packs x y z = x < uid_limit && y < uid_limit && z < uid_limit

(* "No node": a cache miss, or a binary operator's non-terminal case. *)
let none = -1

(* Store accessors.  Every id a recursion holds is below [next_uid], and
   the store always has room for [next_uid] nodes.  Fields are native
   32-bit ints, in bytes the collector never scans: half the memory of an
   [int array], and a store the major GC need not walk.  A leaf's var is
   -1.  Variables stay below [mark_bit] (see the walks) and ids below
   2^31. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let node_bytes = 12
let get m n k = Int32.to_int (get32 m.store ((node_bytes * n) + (4 * k)))
let set m n k x = set32 m.store ((node_bytes * n) + (4 * k)) (Int32.of_int x)
let var_of m n = get m n 0
let low_of m n = get m n 1
let high_of m n = get m n 2
let capacity m = Bytes.length m.store / node_bytes
let max_nodes = 1 lsl 31
let mark_bit = 1 lsl 30

let set_node m n var low high =
  set m n 0 var;
  set m n 1 low;
  set m n 2 high

let rec pow2_at_least k n = if n >= k then n else pow2_at_least k (n * 2)

(* The op-cache starts at a few thousand slots and quadruples on demand
   (up to [op_cap]).  The floor used to be 1024, which made every
   non-trivial manager grow twice on its way to the default cap — tens of
   thousands of grows over a bench run.  4096 keeps the up-front cost of
   a short-lived manager at a few dozen KB while leaving at most one
   geometric step to the default cap. *)
let initial_slots = 4096
let initial_sub_slots = 16
let initial_store_nodes = 64
let initial_log = 64
let recent_cap = 1 lsl 14
let hcache_slots = 256
let default_reorder_threshold = 1 lsl 16

let fresh_subtable () =
  {
    s_count = 0;
    s_key = Array.make initial_sub_slots 0;
    s_node = Array.make initial_sub_slots 0;
  }

let create ?(cache_size = 1 lsl 14) ?(reorder = false) () =
  let cap = pow2_at_least (max 1 cache_size) 1 in
  let slots = min initial_slots cap in
  let store = Bytes.create (node_bytes * initial_store_nodes) in
  let rec m =
    {
      store;
      next_uid = 2;
      free = -1;
      created = 2;
      nvars = 0;
      perm = Array.make 16 0;
      invperm = Array.make 16 0;
      subs = Array.make 16 (fresh_subtable ());
      live = 0;
      op_cap = cap;
      op_stores = 0;
      op_mask = slots - 1;
      op_key = Array.make slots 0;
      op_res = Array.make slots 0;
      op_spill = Hashtbl.create 16;
      h_true = { id = 1; m };
      h_false = { id = 0; m };
      hcache = [||];
      recent = [||];
      recent_len = 0;
      log = Weak.create initial_log;
      log_len = 0;
      auto_reorder = reorder;
      reorder_threshold = default_reorder_threshold;
      op_depth = 0;
      in_reorder = false;
      ro_mark = max_int;
      ro_excess = 0;
      ro_free = -1;
      ro_lrc = [||];
      ro_prc = [||];
      k_hits = 0;
      k_misses = 0;
      k_stores = 0;
      k_nodes = 0;
    }
  in
  m.hcache <- Array.make hcache_slots m.h_false;
  m.recent <- Array.make 64 m.h_false;
  set_node m 0 (-1) 0 0;
  set_node m 1 (-1) 1 1;
  m

(* ---- handles ---------------------------------------------------------------

   The store is invisible to the OCaml collector, so the manager must know
   which nodes user code can still reach: the nodes of the handles still
   alive.  Every new handle is held strongly in [recent]; a sweep first
   moves them all to a weak log and then forces a major collection, after
   which the log holds exactly the reachable handles.  An array store per
   handle is cheap, where a weak store is a runtime call and leaves the
   collector work on every major cycle — on the short-lived managers of a
   protocol build, logging each handle weakly at once cost about a fifth
   of the build.  [recent] spills into the log early only when it reaches
   [recent_cap] handles, so a long run that never sweeps keeps at most
   that many dead handles.  The log is compacted in place when it fills
   (a minor collection empties the slots of handles that died young) and
   doubles only when more than half of it survives.  The leaves' handles
   live in the manager.

   A small direct-mapped cache of recent handles, by id, hands out the
   same handle again for a repeated result instead of boxing a new one; a
   sweep empties it first, so it keeps nothing alive across a sweep. *)

(* A survivor moves by [Weak.get]/[Weak.set], never by a one-slot
   [Weak.blit]: under OCaml 5.1, while another domain of the process sits
   in a blocking call, a one-slot blit can cost a pass over the whole
   array, and one compaction of a 2^17-slot log took 30 s of one core.
   The get keeps a dying handle alive to the end of the current major
   cycle at most, and the full major collection of a sweep completes that
   cycle. *)
let compact_log m =
  let log = m.log in
  let j = ref 0 in
  for i = 0 to m.log_len - 1 do
    if Weak.check log i then begin
      if !j < i then Weak.set log !j (Weak.get log i);
      incr j
    end
  done;
  Weak.fill log !j (m.log_len - !j) None;
  m.log_len <- !j;
  if 2 * !j > Weak.length log then begin
    let bigger = Weak.create (2 * Weak.length log) in
    Weak.blit log 0 bigger 0 !j;
    m.log <- bigger
  end

(* Move every handle held in [recent] to the weak log. *)
let release_recent m =
  for i = 0 to m.recent_len - 1 do
    if m.log_len = Weak.length m.log then compact_log m;
    Weak.set m.log m.log_len (Some m.recent.(i));
    m.log_len <- m.log_len + 1
  done;
  Array.fill m.recent 0 m.recent_len m.h_false;
  m.recent_len <- 0

let remember m h =
  if m.recent_len = Array.length m.recent then begin
    if m.recent_len >= recent_cap then release_recent m
    else begin
      let bigger = Array.make (2 * m.recent_len) m.h_false in
      Array.blit m.recent 0 bigger 0 m.recent_len;
      m.recent <- bigger
    end
  end;
  Array.unsafe_set m.recent m.recent_len h;
  m.recent_len <- m.recent_len + 1

let wrap m id =
  if id = 0 then m.h_false
  else if id = 1 then m.h_true
  else begin
    let slot = id land (hcache_slots - 1) in
    let h = Array.unsafe_get m.hcache slot in
    if h.id = id then h
    else begin
      let h = { id; m } in
      remember m h;
      Array.unsafe_set m.hcache slot h;
      h
    end
  end

(* Results that are one of the operands reuse the operand's handle. *)
let ret1 m a r = if r = a.id then a else wrap m r
let ret2 m a b r = if r = a.id then a else if r = b.id then b else wrap m r

(* Register variables up to [v]: each newcomer takes the next free level,
   so a fresh variable always enters at the bottom of the current order
   (past reorders permute only the variables that existed then).
   Variables are registered in whole pairs (2k, 2k+1), so a pair always
   enters as one adjacent block and sifting, which moves pairs as blocks,
   keeps it adjacent (see [swap_pairs]). *)
let ensure_var m v =
  let v = v lor 1 in
  if v >= m.nvars then begin
    if v >= Array.length m.perm then begin
      let cap = pow2_at_least (v + 1) (Array.length m.perm) in
      let grow a fill = Array.init cap (fun i -> if i < Array.length a then a.(i) else fill) in
      m.perm <- grow m.perm 0;
      m.invperm <- grow m.invperm 0;
      let subs = Array.make cap m.subs.(0) in
      Array.blit m.subs 0 subs 0 (Array.length m.subs);
      m.subs <- subs
    end;
    for k = m.nvars to v do
      m.perm.(k) <- k;
      m.invperm.(k) <- k;
      m.subs.(k) <- fresh_subtable ()
    done;
    m.nvars <- v + 1
  end

let clear_caches m =
  m.op_stores <- 0;
  Array.fill m.op_key 0 (Array.length m.op_key) 0;
  Hashtbl.reset m.op_spill

(* Fibonacci-style multiplicative mixing of a packed key. *)
let slot_of mask key =
  let h = (key lxor (key lsr 29)) * 0x9E3779B1 in
  (h lxor (h lsr 17)) land mask

let grow_cache m =
  Kpt_obs.incr c_op_grow;
  let slots = min (4 * (m.op_mask + 1)) m.op_cap in
  let keys = Array.make slots 0 in
  let res = Array.make slots 0 in
  (* rehash the live entries so growing never loses warmth *)
  let mask = slots - 1 in
  for i = 0 to m.op_mask do
    let k = m.op_key.(i) in
    if k <> 0 then begin
      let j = slot_of mask k in
      keys.(j) <- k;
      res.(j) <- m.op_res.(i)
    end
  done;
  m.op_stores <- 0;
  m.op_mask <- mask;
  m.op_key <- keys;
  m.op_res <- res

let tru m = m.h_true
let fls m = m.h_false
let uid h = h.id
let equal a b = a.id = b.id
let is_true h = h.id = 1
let is_false h = h.id = 0

(* Level (position in the order) of a node's variable; leaves sit below
   everything. *)
let pos m n = if n < 2 then max_int else Array.unsafe_get m.perm (var_of m n)

(* Level of a variable index that may not be registered yet: unregistered
   variables conceptually extend the order in index order. *)
let posv m v = if v < m.nvars then m.perm.(v) else v

(* Place a node with packed child key [k] into subtable arrays known to
   have a free slot. *)
let sub_place keys nodes mask k n =
  let i = ref (slot_of mask k) in
  while keys.(!i) <> 0 do
    i := (!i + 1) land mask
  done;
  keys.(!i) <- k;
  nodes.(!i) <- n

let grow_sub sub =
  Kpt_obs.incr c_uq_grow;
  let slots = 2 * Array.length sub.s_key in
  let mask = slots - 1 in
  let keys = Array.make slots 0 in
  let nodes = Array.make slots 0 in
  for i = 0 to Array.length sub.s_key - 1 do
    if sub.s_key.(i) <> 0 then sub_place keys nodes mask sub.s_key.(i) sub.s_node.(i)
  done;
  sub.s_key <- keys;
  sub.s_node <- nodes

(* Insert an already-built node into its variable's subtable (used by the
   swap and the sweep, where the node is known not to be present). *)
let insert_node m n =
  let sub = m.subs.(var_of m n) in
  if 2 * (sub.s_count + 1) > Array.length sub.s_key then grow_sub sub;
  let k = sub_key (low_of m n) (high_of m n) in
  sub_place sub.s_key sub.s_node (Array.length sub.s_key - 1) k n;
  sub.s_count <- sub.s_count + 1;
  m.live <- m.live + 1

(* Delete an entry (linear probing: the canonical backward-shift, so
   later probe chains stay unbroken — no tombstones). *)
let sub_delete sub k =
  let mask = Array.length sub.s_key - 1 in
  let i = ref (slot_of mask k) in
  while sub.s_key.(!i) <> 0 && sub.s_key.(!i) <> k do
    i := (!i + 1) land mask
  done;
  if sub.s_key.(!i) = k then begin
    sub.s_count <- sub.s_count - 1;
    let i = ref !i and j = ref !i in
    let running = ref true in
    while !running do
      j := (!j + 1) land mask;
      let kj = sub.s_key.(!j) in
      if kj = 0 then running := false
      else begin
        let h = slot_of mask kj in
        (* move [j]'s entry into the hole at [i] unless its home lies
           cyclically within (i, j] — then it must stay put *)
        let stays =
          if !j > !i then h > !i && h <= !j else h > !i || h <= !j
        in
        if not stays then begin
          sub.s_key.(!i) <- kj;
          sub.s_node.(!i) <- sub.s_node.(!j);
          i := !j
        end
      end
    done;
    sub.s_key.(!i) <- 0
  end

let remove_node m n =
  sub_delete m.subs.(var_of m n) (sub_key (low_of m n) (high_of m n));
  m.live <- m.live - 1

let iter_table m f =
  for v = 0 to m.nvars - 1 do
    let sub = m.subs.(v) in
    Array.iteri (fun i k -> if k <> 0 then f sub.s_node.(i)) sub.s_key
  done

(* ---- the sweep at reorder boundaries --------------------------------------

   Between reorders nothing is ever freed: the unique table holds every
   node it was given, so the dead intermediates of a fixpoint iteration
   pile up, count against node budgets, and — worse — get dragged through
   every level swap of every later sift.  The handle log says which nodes
   user code can still reach: empty the handle cache, move [recent] to the
   weak log and force a major collection, so the log keeps exactly the
   reachable handles; mark every node reachable from one of them (the
   leaves are never freed); empty the op-cache, whose entries name ids
   about to be recycled; and rebuild the unique table from the marked
   ids.  Every other id goes on the free list, lowest first, and
   [fresh_node] reuses it.  A held handle's node and all its descendants
   are marked, so they keep their ids and triples: [mk] can never mint a
   duplicate of a live function, and id equality keeps meaning semantic
   equality.  An id is only ever unique among {e live} nodes. *)

let collect m =
  Kpt_obs.incr c_gc_runs;
  let before = m.live in
  clear_caches m;
  Array.fill m.hcache 0 hcache_slots m.h_false;
  release_recent m;
  Gc.full_major ();
  let marks = Bytes.make m.next_uid '\000' in
  let rec mark n =
    if n >= 2 && Bytes.get marks n = '\000' then begin
      Bytes.set marks n '\001';
      mark (low_of m n);
      mark (high_of m n)
    end
  in
  compact_log m;
  for i = 0 to m.log_len - 1 do
    match Weak.get m.log i with Some h -> mark h.id | None -> ()
  done;
  for v = 0 to m.nvars - 1 do
    m.subs.(v) <- fresh_subtable ()
  done;
  m.live <- 0;
  m.free <- -1;
  for n = m.next_uid - 1 downto 2 do
    if Bytes.get marks n <> '\000' then insert_node m n
    else begin
      set m n 1 m.free;
      m.free <- n
    end
  done;
  if m.live < before then Kpt_obs.add c_gc_freed (before - m.live)

(* ---- in-reorder reference counting ----------------------------------------

   A sifting pass restructures nodes in place; the displaced children can
   become garbage, and without liveness information [m.live] would only
   ever grow — drowning the very size signal sifting steers by, and
   bloating the table with every explored position.  Liveness is
   approximated with two counts kept only while a reorder is running, in
   dense arrays indexed by id ([ro_lrc], [ro_prc]; cleared on exit):

   - a {e logical} count for every node — the number of live parents,
     seeded by an in-degree sweep at reorder entry, with in-degree-0
     nodes treated as roots (they may be external handles) and given one
     implicit, unreleasable reference.  A node whose logical count drops
     to 0 is a {e zombie}: still in the table (it might be an external
     handle after all), but subtracted from the steering metric
     [ro_size], with the release cascading into its children.  A later
     retain revives it, cascading back.  Errors here only blur the
     heuristic, never correctness.

   - a {e physical} count for transients (id ≥ [ro_mark]) only — the
     number of node fields pointing at them, zombie parents included.  No
     user code runs during a reorder, so a transient cannot have escaped:
     when its physical count returns to 0, nothing in the process can
     reach it and it is safe to evict from the table and recycle.  A
     transient referenced only by a zombie keeps a physical reference and
     survives — the zombie may be externally alive, and evicting the
     child would let [mk] mint a duplicate and break canonicity.

   For transients, logical ≤ physical (each field-reference counts
   logically only while its owner is alive), so eviction implies the
   node was already logically dead.  An evicted transient's id goes on
   [ro_free], which only a sift draws from: every node born in the sift
   then has an id ≥ [ro_mark], so "transient" stays an id test. *)

let transient m n = n >= m.ro_mark

(* The steering metric: table entries that are believed reachable. *)
let ro_size m = m.live - m.ro_excess

let rec l_retain m n =
  if n >= 2 then begin
    let c = m.ro_lrc.(n) in
    if c < 0 then
      (* a fresh transient: its own child references are already active
         (counted at creation), no cascade *)
      m.ro_lrc.(n) <- 1
    else if c = 0 then begin
      m.ro_excess <- m.ro_excess - 1;
      m.ro_lrc.(n) <- 1;
      l_retain m (low_of m n);
      l_retain m (high_of m n)
    end
    else m.ro_lrc.(n) <- c + 1
  end

let rec l_release m n =
  if n >= 2 then begin
    let c = m.ro_lrc.(n) in
    if c = 1 then begin
      m.ro_lrc.(n) <- 0;
      m.ro_excess <- m.ro_excess + 1;
      l_release m (low_of m n);
      l_release m (high_of m n)
    end
    else if c > 1 then m.ro_lrc.(n) <- c - 1
    (* roots bottom out at their implicit reference *)
  end

let p_retain m n = if transient m n then m.ro_prc.(n) <- m.ro_prc.(n) + 1

let rec p_release m n =
  if transient m n then begin
    let c = m.ro_prc.(n) in
    if c > 1 then m.ro_prc.(n) <- c - 1
    else begin
      (* physically unreferenced — nothing in the process can reach a
         node born mid-reorder, so evict and recycle *)
      m.ro_prc.(n) <- 0;
      let refs_active =
        if m.ro_lrc.(n) = 0 then begin
          m.ro_excess <- m.ro_excess - 1;
          false
        end
        else true
      in
      m.ro_lrc.(n) <- -1;
      let lo = low_of m n and hi = high_of m n in
      remove_node m n;
      set m n 1 m.ro_free;
      m.ro_free <- n;
      if refs_active then begin
        l_release m lo;
        l_release m hi
      end;
      p_release m lo;
      p_release m hi
    end
  end

(* Size the refcount arrays to the store's capacity, new slots cleared. *)
let fit_ro m =
  let cap = capacity m in
  let old = Array.length m.ro_lrc in
  if old < cap then begin
    let lrc = Array.make cap (-1) and prc = Array.make cap 0 in
    Array.blit m.ro_lrc 0 lrc 0 old;
    Array.blit m.ro_prc 0 prc 0 old;
    m.ro_lrc <- lrc;
    m.ro_prc <- prc
  end

(* Op-cache probe and store.  A probe returns [none] on a miss; keys
   beyond the packed range go to the exact spill table.  The store slot
   is computed after a possible grow, so it always lands where a probe
   will look. *)
let cache_find m op x y z =
  if op_packs x y z then begin
    let k = op_key op x y z in
    let i = slot_of m.op_mask k in
    if Array.unsafe_get m.op_key i = k then begin
      m.k_hits <- m.k_hits + 1;
      Array.unsafe_get m.op_res i
    end
    else begin
      m.k_misses <- m.k_misses + 1;
      none
    end
  end
  else begin
    Kpt_obs.incr c_spill;
    match Hashtbl.find_opt m.op_spill (op, x, y, z) with
    | Some r ->
        m.k_hits <- m.k_hits + 1;
        r
    | None ->
        m.k_misses <- m.k_misses + 1;
        none
  end

let cache_add m op x y z r =
  if op_packs x y z then begin
    m.k_stores <- m.k_stores + 1;
    m.op_stores <- m.op_stores + 1;
    if m.op_stores > (m.op_mask + 1) / 4 && m.op_mask + 1 < m.op_cap then grow_cache m;
    let k = op_key op x y z in
    let i = slot_of m.op_mask k in
    Array.unsafe_set m.op_key i k;
    Array.unsafe_set m.op_res i r
  end
  else Hashtbl.replace m.op_spill (op, x, y, z) r

(* A new id: a recycled one when the free list has one (inside a sift,
   only one of the sift's own evicted transients), else the next unused
   id, doubling the store when it is full. *)
let take_id m =
  let head = if m.in_reorder then m.ro_free else m.free in
  if head >= 0 then begin
    if m.in_reorder then m.ro_free <- low_of m head else m.free <- low_of m head;
    head
  end
  else begin
    let n = m.next_uid in
    m.next_uid <- n + 1;
    if n + 1 > capacity m then begin
      if 2 * capacity m > max_nodes then failwith "Bdd: more than 2^31 nodes";
      let store = Bytes.create (2 * Bytes.length m.store) in
      Bytes.blit m.store 0 store 0 (node_bytes * n);
      m.store <- store;
      if Array.length m.ro_lrc > 0 then fit_ro m
    end;
    n
  end

let fresh_node m var low high =
  let n = take_id m in
  set_node m n var low high;
  m.created <- m.created + 1;
  (* a node born mid-reorder references its children for rc purposes *)
  if m.in_reorder then begin
    l_retain m low;
    l_retain m high;
    p_retain m low;
    p_retain m high
  end;
  m.k_nodes <- m.k_nodes + 1;
  (* Amortised budget check: the node ceiling (and, between fixpoint
     rounds, the deadline) must bite even inside one pathological apply,
     but a per-node check would tax every allocation — every 4096 nodes
     keeps the overhead unmeasurable.  The ceiling is checked against the
     {e live} table size, not the lifetime allocation count: a reorder
     evicts its own transients, and the whole point of sifting under a
     budget is that space reclaimed no longer counts against it.
     Suspended during a reorder: the manager is mid-surgery and the
     caller gets checked again on the very next allocations. *)
  if m.created land 4095 = 0 && not m.in_reorder then Engine.check_nodes (m.live + 2);
  n

let mk m var low high =
  if low = high then low
  else begin
    ensure_var m var;
    assert (pos m low > m.perm.(var) && pos m high > m.perm.(var));
    let sub = m.subs.(var) in
    let k = sub_key low high in
    let keys = sub.s_key in
    let mask = Array.length keys - 1 in
    let i = ref (slot_of mask k) in
    while Array.unsafe_get keys !i <> 0 && Array.unsafe_get keys !i <> k do
      i := (!i + 1) land mask
    done;
    if Array.unsafe_get keys !i = k then Array.unsafe_get sub.s_node !i
    else begin
      let n = fresh_node m var low high in
      keys.(!i) <- k;
      sub.s_node.(!i) <- n;
      sub.s_count <- sub.s_count + 1;
      m.live <- m.live + 1;
      if 2 * sub.s_count > mask + 1 then grow_sub sub;
      n
    end
  end

(* ---- dynamic reordering -------------------------------------------------- *)

(* Swap the variables at adjacent levels [l] and [l+1] in place (Rudell).
   Let u = invperm l, v = invperm (l+1).  v's nodes are untouched (their
   children lie strictly below level l+1 either way).  A u-node
   independent of v just moves down one level, keeping its triple.  A
   u-node f with a v-child is rewritten through the Shannon identity

     f = u ? (v ? f11 : f10) : (v ? f01 : f00)
       = v ? (u ? f11 : f01) : (u ? f10 : f00)

   rewriting f's store entry so every handle on f keeps denoting the same
   boolean function.  The rewrite cannot collapse (a dependent node has
   f00 ≠ f01 or f10 ≠ f11 on the side where the v-child sits) and cannot
   collide with an existing v-node or another rewritten one (all denote
   pairwise distinct functions before the swap, and the swap changes no
   denotation) — so canonicity is preserved. *)
let swap_levels m l =
  Kpt_obs.incr c_ro_swaps;
  let u = m.invperm.(l) and v = m.invperm.(l + 1) in
  let su = m.subs.(u) in
  (* detach u's nodes, in the order they are then re-registered *)
  let count = su.s_count in
  let nodes = Array.make count 0 in
  let k = ref count in
  Array.iteri
    (fun i key ->
      if key <> 0 then begin
        decr k;
        nodes.(!k) <- su.s_node.(i)
      end)
    su.s_key;
  let slots = pow2_at_least (max initial_sub_slots (2 * count)) initial_sub_slots in
  su.s_count <- 0;
  su.s_key <- Array.make slots 0;
  su.s_node <- Array.make slots 0;
  m.live <- m.live - count;
  (* flip the order *)
  m.invperm.(l) <- v;
  m.invperm.(l + 1) <- u;
  m.perm.(u) <- l + 1;
  m.perm.(v) <- l;
  (* re-register the independent movers first so the dependents' cofactor
     lookups can share them, then rewrite the dependents (kept, in order,
     at the front of [nodes]) *)
  let ndep = ref 0 in
  Array.iter
    (fun n ->
      if var_of m (low_of m n) = v || var_of m (high_of m n) = v then begin
        nodes.(!ndep) <- n;
        incr ndep
      end
      else insert_node m n)
    nodes;
  for i = 0 to !ndep - 1 do
    let f = nodes.(i) in
    let f0 = low_of m f and f1 = high_of m f in
    let f00, f01 = if var_of m f0 = v then (low_of m f0, high_of m f0) else (f0, f0) in
    let f10, f11 = if var_of m f1 = v then (low_of m f1, high_of m f1) else (f1, f1) in
    let nl = mk m u f00 f10 in
    let nh = mk m u f01 f11 in
    assert (nl <> nh);
    (* retain the new children before releasing the old ones: when a
       cofactor is reused ([nl = f0]) the count must never dip to 0.
       Logical references belong to live parents only — a zombie's
       field changes move physical counts alone. *)
    let f_alive = m.ro_lrc.(f) <> 0 in
    if f_alive then begin
      l_retain m nl;
      l_retain m nh
    end;
    p_retain m nl;
    p_retain m nh;
    set_node m f v nl nh;
    insert_node m f;
    if f_alive then begin
      l_release m f0;
      l_release m f1
    end;
    p_release m f0;
    p_release m f1
  done

(* Sifting moves variables in {e pair groups} (2k, 2k+1): the convention
   upstairs interleaves each state bit's current (even) and next (odd)
   copy, and [swap_pairs] needs the current↔next bit map to stay
   monotone in the order.  Keeping each pair adjacent — the even variable
   directly above its odd twin — makes every such move a level-shift by
   one, monotone by construction. *)
type sift_state = {
  gorder : int array; (* position → group; group g is the pair (2g, 2g+1) *)
  gpos : int array; (* group → position *)
}

(* Swap the groups at positions [p] and [p+1] (levels 2p .. 2p+3): bubble
   each level of the lower pair up past the upper pair, preserving both
   internal orders. *)
let swap_adjacent_groups m st p =
  let gx = st.gorder.(p) and gy = st.gorder.(p + 1) in
  for k = 0 to 1 do
    for j = 1 to 2 do
      swap_levels m ((2 * p) + 2 + k - j)
    done
  done;
  st.gorder.(p) <- gy;
  st.gorder.(p + 1) <- gx;
  st.gpos.(gy) <- p;
  st.gpos.(gx) <- p + 1

let group_nodes m g =
  m.subs.(2 * g).s_count + m.subs.((2 * g) + 1).s_count

(* Sift one group: walk it to the nearer edge and then across to the
   other, tracking the total live-node count at each position, then park
   it at the best position seen.  A direction is abandoned early when the
   table grows past [limit] — the classic growth-abort that keeps a bad
   excursion from flooding the table. *)
let sift_group m st g =
  let ngroups = Array.length st.gorder in
  let p0 = st.gpos.(g) in
  let best_size = ref (ro_size m) and best_pos = ref p0 in
  let limit = ro_size m + (ro_size m / 5) + 4096 in
  let record () =
    if ro_size m < !best_size then begin
      best_size := ro_size m;
      best_pos := st.gpos.(g)
    end
  in
  let down () =
    while st.gpos.(g) < ngroups - 1 && ro_size m <= limit do
      swap_adjacent_groups m st st.gpos.(g);
      record ()
    done
  in
  let up () =
    while st.gpos.(g) > 0 && ro_size m <= limit do
      swap_adjacent_groups m st (st.gpos.(g) - 1);
      record ()
    done
  in
  if p0 >= ngroups / 2 then begin
    down ();
    up ()
  end
  else begin
    up ();
    down ()
  end;
  while st.gpos.(g) < !best_pos do
    swap_adjacent_groups m st st.gpos.(g)
  done;
  while st.gpos.(g) > !best_pos do
    swap_adjacent_groups m st (st.gpos.(g) - 1)
  done

let reorder_now m =
  if m.nvars > 2 then begin
    Kpt_obs.incr c_ro_runs;
    let before = m.live in
    (* entry sweep: sift only what is actually reachable — the dead
       intermediates of the run so far would otherwise be dragged
       through every level swap *)
    collect m;
    m.in_reorder <- true;
    m.ro_mark <- m.next_uid;
    m.ro_excess <- 0;
    m.ro_free <- -1;
    fit_ro m;
    (* seed the logical counts: internal in-degrees, with in-degree-0
       nodes — external handles and garbage tops alike — as roots
       carrying one implicit, unreleasable reference *)
    let bump n = if n >= 2 then m.ro_lrc.(n) <- (if m.ro_lrc.(n) < 0 then 1 else m.ro_lrc.(n) + 1) in
    iter_table m (fun n ->
        bump (low_of m n);
        bump (high_of m n));
    iter_table m (fun n -> if m.ro_lrc.(n) < 0 then m.ro_lrc.(n) <- 1);
    Fun.protect
      ~finally:(fun () ->
        m.in_reorder <- false;
        m.ro_mark <- max_int;
        m.ro_excess <- 0;
        m.ro_free <- -1;
        Array.fill m.ro_lrc 0 (Array.length m.ro_lrc) (-1);
        Array.fill m.ro_prc 0 (Array.length m.ro_prc) 0)
      (fun () ->
        Kpt_obs.time "bdd.reorder" (fun () ->
            let ngroups = m.nvars / 2 in
            (* groups stay contiguous across reorders (they only ever move
               as blocks), so the current order of groups is the order of
               their top variables' levels *)
            let ids = Array.init ngroups (fun g -> g) in
            Array.sort (fun a b -> compare m.perm.(2 * a) m.perm.(2 * b)) ids;
            let st = { gorder = ids; gpos = Array.make ngroups 0 } in
            Array.iteri (fun p g -> st.gpos.(g) <- p) st.gorder;
            (* sift the heaviest groups first: they have the most to give *)
            let by_weight = Array.init ngroups (fun g -> g) in
            Array.sort (fun a b -> compare (group_nodes m b) (group_nodes m a)) by_weight;
            Array.iter (fun g -> if group_nodes m g > 0 then sift_group m st g) by_weight));
    (* exit sweep: sifting zombified the displaced structure, and evicted
       transients wait on [ro_free]; what no live handle reaches can go *)
    collect m;
    if m.live < before then Kpt_obs.add c_ro_saved (before - m.live)
  end;
  (* Back off geometrically so a workload that keeps growing re-sifts at
     ever coarser intervals instead of thrashing; the basis is the live
     table size, which after the exit sweep counts only reachable nodes. *)
  m.reorder_threshold <- max (2 * (m.live + 2)) default_reorder_threshold

(* Move the hot counters into the current metric context.  The peak is
   the store's high-water mark, which only grows. *)
let flush m =
  if m.k_nodes > 0 then begin
    Kpt_obs.add c_node m.k_nodes;
    Kpt_obs.record_max c_peak m.next_uid;
    m.k_nodes <- 0
  end;
  if m.k_hits > 0 then begin
    Kpt_obs.add c_hit m.k_hits;
    m.k_hits <- 0
  end;
  if m.k_misses > 0 then begin
    Kpt_obs.add c_miss m.k_misses;
    m.k_misses <- 0
  end;
  if m.k_stores > 0 then begin
    Kpt_obs.add c_store m.k_stores;
    m.k_stores <- 0
  end

(* Public-operation guard, and the one place an automatic sift is
   decided.  A reorder must never run while an apply/quantify recursion
   is mid-flight (its local cofactor state assumes a frozen order), so
   the threshold is tested at the entry of the outermost public
   operation only: an operation that crosses it finishes in the order it
   started with, and the next one sifts first.  Nodes are freed only
   inside [reorder_now], so [live] cannot drop back below the threshold
   in between.  Leaving the outermost operation — by return or by an
   exception (a [Budget.Exhausted] from [fresh_node]) — flushes the hot
   counters, nodes the entry reorder made included.

   The entry sweep sees only logged handles, so an operation reads its
   operands' ids after [enter], never before: the handles stay reachable
   across the sweep. *)
let enter m =
  if m.op_depth = 0 && m.auto_reorder && m.live + 2 >= m.reorder_threshold then reorder_now m;
  m.op_depth <- m.op_depth + 1

let leave m =
  m.op_depth <- m.op_depth - 1;
  if m.op_depth = 0 then flush m

let guarded m f =
  enter m;
  match f () with
  | r ->
      leave m;
      r
  | exception e ->
      leave m;
      raise e

let reorder m =
  if m.op_depth = 0 && not m.in_reorder then begin
    reorder_now m;
    flush m
  end

let set_auto_reorder m ?threshold on =
  m.auto_reorder <- on;
  match threshold with
  | Some th -> m.reorder_threshold <- max 16 th
  | None -> ()

let var m i =
  assert (0 <= i && i < mark_bit);
  wrap m (guarded m (fun () -> mk m i 0 1))

let nvar m i =
  assert (0 <= i && i < mark_bit);
  wrap m (guarded m (fun () -> mk m i 1 0))

(* Operation tags for the packed cache: the five binary boolean
   operators (z = 0), [ite] and the cube-keyed relational product, which
   also moves pair bits — seven of the eight values of the 3-bit tag.
   Three more operations borrow keys no other operation stores:
   - [¬a] is stored under the key of [xor(true, a)], which denotes the
     same function and which [xor] itself never stores (a constant
     operand is one of its terminal cases);
   - [diff a b = a ∧ ¬b] under the [and] tag with z = 1, the id of
     [true], which a binary operator never puts in its z field;
   - the containment test [a ≤ b] under the [imp] tag with z = 1, its
     answer stored as the [true] or [false] leaf. *)
let op_and = 0
let op_or = 1
let op_xor = 2
let op_imp = 3
let op_iff = 4
let op_ite = 5
let op_and_exists = 6

(* Terminal cases of the binary operators, or [none] when the operands
   need a recursion step.  Ids 0 and 1 are false and true. *)
let rec terminal m op a b =
  if op = op_and then
    if a = 0 || b = 0 then 0
    else if a = 1 then b
    else if b = 1 then a
    else if a = b then a
    else none
  else if op = op_or then
    if a = 1 || b = 1 then 1
    else if a = 0 then b
    else if b = 0 then a
    else if a = b then a
    else none
  else if op = op_xor then
    if a = b then 0
    else if a = 0 then b
    else if b = 0 then a
    else if a = 1 then not_rec m b
    else if b = 1 then not_rec m a
    else none
  else if op = op_imp then
    if a = 0 || b = 1 then 1
    else if a = 1 then b
    else if a = b then 1
    else if b = 0 then not_rec m a
    else none
  else if a = b then 1 (* op_iff *)
  else if a = 1 then b
  else if b = 1 then a
  else if a = 0 then not_rec m b
  else if b = 0 then not_rec m a
  else none

and not_rec m a =
  if a = 1 then 0
  else if a = 0 then 1
  else begin
    let r = cache_find m op_xor 1 a 0 in
    if r <> none then r
    else begin
      let r = mk m (var_of m a) (not_rec m (low_of m a)) (not_rec m (high_of m a)) in
      cache_add m op_xor 1 a 0 r;
      (* seed the reverse direction too: ¬r = a *)
      cache_add m op_xor 1 r 0 a;
      r
    end
  end

(* Binary apply.  Every operator but [imp] is commutative, so the cache
   key is normalised on the operand ids. *)
let rec apply m op a b =
  let r = terminal m op a b in
  if r <> none then r
  else begin
    let sw = op <> op_imp && a > b in
    let x = if sw then b else a and y = if sw then a else b in
    let r = cache_find m op x y 0 in
    if r <> none then r
    else begin
      let pa = pos m a and pb = pos m b in
      let r =
        if pa = pb then
          mk m (var_of m a)
            (apply m op (low_of m a) (low_of m b))
            (apply m op (high_of m a) (high_of m b))
        else if pa < pb then
          mk m (var_of m a) (apply m op (low_of m a) b) (apply m op (high_of m a) b)
        else mk m (var_of m b) (apply m op a (low_of m b)) (apply m op a (high_of m b))
      in
      cache_add m op x y 0 r;
      r
    end
  end

(* [a ∧ ¬b] in one pass: the complement of [b] is never built, except
   where the result is that complement ([a] true). *)
let rec diff_rec m a b =
  if a = 0 || b = 1 || a = b then 0
  else if b = 0 then a
  else if a = 1 then not_rec m b
  else begin
    let r = cache_find m op_and a b 1 in
    if r <> none then r
    else begin
      let pa = pos m a and pb = pos m b in
      let r =
        if pa = pb then
          mk m (var_of m a)
            (diff_rec m (low_of m a) (low_of m b))
            (diff_rec m (high_of m a) (high_of m b))
        else if pa < pb then
          mk m (var_of m a) (diff_rec m (low_of m a) b) (diff_rec m (high_of m a) b)
        else mk m (var_of m b) (diff_rec m a (low_of m b)) (diff_rec m a (high_of m b))
      in
      cache_add m op_and a b 1 r;
      r
    end
  end

(* Containment [a ≤ b] (CUDD's [bddLeq]): stops at the first cofactor
   pair that fails and mints no node. *)
let rec leq_rec m a b =
  if a = b || a = 0 || b = 1 then true
  else if a < 2 || b < 2 then false
  else begin
    let r = cache_find m op_imp a b 1 in
    if r <> none then r = 1
    else begin
      let pa = pos m a and pb = pos m b in
      let ok =
        if pa = pb then leq_rec m (high_of m a) (high_of m b) && leq_rec m (low_of m a) (low_of m b)
        else if pa < pb then leq_rec m (high_of m a) b && leq_rec m (low_of m a) b
        else leq_rec m a (high_of m b) && leq_rec m a (low_of m b)
      in
      cache_add m op_imp a b 1 (if ok then 1 else 0);
      ok
    end
  end

let and_ m a b = ret2 m a b (guarded m (fun () -> apply m op_and a.id b.id))
let diff m a b = ret2 m a b (guarded m (fun () -> diff_rec m a.id b.id))
let or_ m a b = ret2 m a b (guarded m (fun () -> apply m op_or a.id b.id))
let not_ m a = ret1 m a (guarded m (fun () -> not_rec m a.id))
let xor m a b = ret2 m a b (guarded m (fun () -> apply m op_xor a.id b.id))
let imp m a b = ret2 m a b (guarded m (fun () -> apply m op_imp a.id b.id))
let iff m a b = ret2 m a b (guarded m (fun () -> apply m op_iff a.id b.id))

let rec ite_rec m c a b =
  if c = 1 then a
  else if c = 0 then b
  else if a = b then a
  else if a = 1 && b = 0 then c
  else begin
    let r = cache_find m op_ite c a b in
    if r <> none then r
    else begin
      let pc = pos m c and pa = pos m a and pb = pos m b in
      let p = if pc < pa then pc else pa in
      let p = if pb < p then pb else p in
      let topvar = var_of m (if pc = p then c else if pa = p then a else b) in
      (* the high cofactor first, as every other recursion here: the
         order of the two calls decides which op-cache entries collide *)
      let hi =
        ite_rec m
          (if pc = p then high_of m c else c)
          (if pa = p then high_of m a else a)
          (if pb = p then high_of m b else b)
      in
      let lo =
        ite_rec m
          (if pc = p then low_of m c else c)
          (if pa = p then low_of m a else a)
          (if pb = p then low_of m b else b)
      in
      let r = mk m topvar lo hi in
      cache_add m op_ite c a b r;
      r
    end
  end

let ite m c a b =
  let r = guarded m (fun () -> ite_rec m c.id a.id b.id) in
  if r = c.id then c else ret2 m a b r

(* n-ary conjunction/disjunction as balanced-tree folds: pairing operands
   keeps the intermediate BDDs small compared to a linear [fold_left]
   (which carries one ever-growing accumulator through the whole list). *)
let balanced_fold op unit ps =
  match ps with
  | [] -> unit
  | [ p ] -> p
  | ps ->
      let a = Array.of_list ps in
      let n = ref (Array.length a) in
      while !n > 1 do
        let k = !n in
        for i = 0 to (k / 2) - 1 do
          a.(i) <- op a.(2 * i) a.((2 * i) + 1)
        done;
        if k land 1 = 1 then a.(k / 2) <- a.(k - 1);
        n := (k + 1) / 2
      done;
      a.(0)

let conj m ps = balanced_fold (and_ m) (tru m) ps
let disj m ps = balanced_fold (or_ m) (fls m) ps
let implies m a b = guarded m (fun () -> leq_rec m a.id b.id)

(* ---- walks over a root -----------------------------------------------------

   [size], [support] and [depends_on] mark the nodes they visit with a
   bit of the store's var field and clear it again with a second walk
   over the marked nodes, so they allocate nothing per node.  Every
   marked node is reached from the root through marked nodes, so the
   clearing walk, which descends only through marked nodes, finds them
   all — also after an early exit. *)

let marked m n = n >= 2 && var_of m n land mark_bit <> 0
let set_mark m n = set m n 0 (var_of m n lor mark_bit)

let rec unmark m n =
  if marked m n then begin
    set m n 0 (var_of m n land lnot mark_bit);
    unmark m (low_of m n);
    unmark m (high_of m n)
  end

let size m root =
  let count = ref 0 in
  let rec go n =
    if n >= 2 && not (marked m n) then begin
      set_mark m n;
      incr count;
      go (low_of m n);
      go (high_of m n)
    end
  in
  go root.id;
  unmark m root.id;
  !count

let support m root =
  let seen = Array.make m.nvars false in
  let rec go n =
    if n >= 2 && not (marked m n) then begin
      seen.(var_of m n) <- true;
      set_mark m n;
      go (low_of m n);
      go (high_of m n)
    end
  in
  go root.id;
  unmark m root.id;
  let vars = ref [] in
  for v = m.nvars - 1 downto 0 do
    if seen.(v) then vars := v :: !vars
  done;
  !vars

(* Early-exit dependence test: stop at the first node labelled [i]; prune
   subtrees rooted strictly below [i]'s level (levels only grow downward),
   and never materialise the support list. *)
exception Found

let depends_on m root i =
  let pi = posv m i in
  let rec go n =
    if n >= 2 && not (marked m n) then begin
      if var_of m n = i then raise Found;
      if pos m n < pi then begin
        set_mark m n;
        go (low_of m n);
        go (high_of m n)
      end
    end
  in
  let found = match go root.id with () -> false | exception Found -> true in
  unmark m root.id;
  found

(* [restrict] and [rename] rebuild their root through an id-keyed memo. *)
let restrict m root i polarity =
  ret1 m root
    (guarded m (fun () ->
         let pi = posv m i in
         let memo = Hashtbl.create 64 in
         let rec go n =
           if pos m n > pi then n
           else if var_of m n = i then if polarity then high_of m n else low_of m n
           else
             match Hashtbl.find_opt memo n with
             | Some r -> r
             | None ->
                 let r = mk m (var_of m n) (go (low_of m n)) (go (high_of m n)) in
                 Hashtbl.add memo n r;
                 r
         in
         go root.id))

(* ---- cubes: quantification and the pair move -----------------------------

   A cube is a chain of literals, one per variable, down the level order:
   a positive literal [(v, false, rest)] quantifies [v], a negative one
   [(v, rest, false)] moves [v] to its pair partner [v lxor 1].  Either
   way one child is false, so the rest of the chain is [low lor high].  A
   cube is a node like any other, so a reorder rewrites it in place and
   it keeps denoting the same literals, and the op-cache can key on its
   id.  The recursion below walks the cube alongside its operands and
   first drops the literals above the operands' top level — none of their
   variables is in the operands' support — so each cache entry is keyed
   on the suffix that still matters, and denotes a function of (operands,
   literals) that no level swap changes.  Entries therefore survive
   across calls; only a [collect] (which every reorder runs on entry and
   exit) clears them. *)

type cube = t

let cube m ?(move = []) vars =
  match (vars, move) with
  | [], [] -> m.h_true
  | _ ->
      let lits = List.map (fun v -> (v, true)) vars @ List.map (fun v -> (v, false)) move in
      List.iter (fun (v, _) -> assert (0 <= v && v < mark_bit)) lits;
      wrap m
        (guarded m (fun () ->
             ensure_var m (List.fold_left (fun acc (v, _) -> max acc v) 0 lits);
             let bottom_up =
               List.sort_uniq
                 (fun (a, qa) (b, qb) -> compare (m.perm.(b), qb) (m.perm.(a), qa))
                 lits
             in
             let rec build acc = function
               | (v, _) :: (w, _) :: _ when v = w ->
                   invalid_arg
                     (Printf.sprintf "Bdd.cube: variable %d is both quantified and moved" v)
               | (v, true) :: rest -> build (mk m v 0 acc) rest
               | (v, false) :: rest -> build (mk m v acc 0) rest
               | [] -> acc
             in
             build 1 bottom_up))

let rec cube_from m c p =
  if pos m c < p then cube_from m (low_of m c lor high_of m c) p else c

(* CUDD's AndAbstract with Sylvan-style renaming: [∃c. a ∧ b] in one
   pass, without building [a ∧ b] in full, with every moved variable's
   node rebuilt on its partner as the result comes back up.  [exists] is
   the instance [b = true] (and [a = b] reduces to it), [swap_pairs] the
   instance with moves only.  Sifting keeps each pair adjacent, the even
   variable directly above its odd twin, so a moved node lands one level
   above or below the node it replaces; that keeps the order whenever no
   partner of a moved variable survives on the same path.  A rebuild that
   would break the order raises instead of minting a non-canonical node. *)
let rec and_exists_rec m a b c =
  if a = 0 || b = 0 then 0
  else if a = 1 && b = 1 then 1
  else if a = b then and_exists_rec m a 1 c
  else begin
    let pa = pos m a and pb = pos m b in
    let p = if pa < pb then pa else pb in
    let c = cube_from m c p in
    if c = 1 then apply m op_and a b
    else begin
      let sw = a > b in
      let x = if sw then b else a and y = if sw then a else b in
      let r = cache_find m op_and_exists x y c in
      if r <> none then r
      else begin
        let a0 = if pa = p then low_of m a else a and a1 = if pa = p then high_of m a else a in
        let b0 = if pb = p then low_of m b else b and b1 = if pb = p then high_of m b else b in
        let at_p = pos m c = p in
        let r =
          if at_p && high_of m c <> 0 then begin
            let ch = high_of m c in
            let r0 = and_exists_rec m a0 b0 ch in
            if r0 = 1 then r0 else apply m op_or r0 (and_exists_rec m a1 b1 ch)
          end
          else begin
            let v = var_of m (if pa = p then a else b) in
            let v = if at_p then v lxor 1 else v and c = if at_p then low_of m c else c in
            let r1 = and_exists_rec m a1 b1 c in
            let r0 = and_exists_rec m a0 b0 c in
            let pv = m.perm.(v) in
            if pv >= pos m r0 || pv >= pos m r1 then
              invalid_arg "Bdd: a moved variable's partner is in the support";
            mk m v r0 r1
          end
        in
        cache_add m op_and_exists x y c r;
        r
      end
    end
  end

let exists m c root = ret1 m root (guarded m (fun () -> and_exists_rec m root.id 1 c.id))

let forall m c root =
  ret1 m root (guarded m (fun () -> not_rec m (and_exists_rec m (not_rec m root.id) 1 c.id)))

let and_exists m c a b = ret2 m a b (guarded m (fun () -> and_exists_rec m a.id b.id c.id))

let swap_pairs m vars root = exists m (cube m ~move:vars []) root

(* Rename by an arbitrary map (the current↔next moves go through
   [swap_pairs]).  The classic single-pass recursion is only canonical
   when the map preserves the {e level} order of the support, so the
   support is checked first, and a non-monotone map falls back to
   ite-composition, which is correct at any order. *)
let rename m f root =
  ret1 m root
    (guarded m (fun () ->
         (* The fast path is only sound when the map is monotone on the
            {e levels} of the root's support — renaming node-by-node keeps
            the structural order, which must then be the level order.  That
            can fail even on a never-reordered manager (an index swap), so
            the support analysis always runs; it costs one extra walk of
            the root, against the rebuild walk the rename does anyway. *)
         let by_level = List.sort (fun a b -> compare (posv m a) (posv m b)) (support m root) in
         let images = List.map (fun v -> posv m (f v)) by_level in
         let rec monotone = function
           | a :: (b :: _ as rest) -> a < b && monotone rest
           | _ -> true
         in
         let fast = monotone images in
         let memo = Hashtbl.create 256 in
         let rec go n =
           if n < 2 then n
           else
             match Hashtbl.find_opt memo n with
             | Some r -> r
             | None ->
                 let v = var_of m n and lo = low_of m n and hi = high_of m n in
                 let r =
                   if fast then mk m (f v) (go lo) (go hi)
                   else ite_rec m (mk m (f v) 0 1) (go hi) (go lo)
                 in
                 Hashtbl.add memo n r;
                 r
         in
         go root.id))

(* Exact model counting: the classic per-node recurrence over the node
   {e ranks} — each support variable's index must be < [nvars], but its
   level can be anywhere in the order, so levels are first compressed to
   the rank they hold among the levels of variables 0..nvars-1. *)
let sat_count_exact m ~nvars root =
  let width = max nvars m.nvars in
  let sorted = Array.init nvars (fun v -> posv m v) in
  Array.sort compare sorted;
  let rank_of_level = Array.make (width + 1) (-1) in
  Array.iteri (fun r l -> rank_of_level.(l) <- r) sorted;
  let rank n =
    if n < 2 then nvars
    else begin
      let r = rank_of_level.(posv m (var_of m n)) in
      assert (r >= 0);
      r
    end
  in
  let memo = Hashtbl.create 256 in
  let rec go n =
    if n = 0 then Bigcount.zero
    else if n = 1 then Bigcount.one
    else
      match Hashtbl.find_opt memo n with
      | Some c -> c
      | None ->
          let rn = rank n in
          let weight child = Bigcount.shift_left (go child) (rank child - rn - 1) in
          let c = Bigcount.add (weight (low_of m n)) (weight (high_of m n)) in
          Hashtbl.add memo n c;
          c
  in
  Bigcount.shift_left (go root.id) (rank root.id)

let live_count m = m.live + 2

type stats = {
  nodes_created : int;
  live_nodes : int;
  unique_slots : int;
  unique_load : float;
  cache_slots : int;
}

let stats m =
  let slots = ref 0 and entries = ref 0 in
  for v = 0 to m.nvars - 1 do
    slots := !slots + Array.length m.subs.(v).s_key;
    entries := !entries + m.subs.(v).s_count
  done;
  {
    nodes_created = m.created;
    live_nodes = live_count m;
    unique_slots = !slots;
    unique_load = (if !slots = 0 then 0.0 else float_of_int !entries /. float_of_int !slots);
    cache_slots = m.op_mask + 1;
  }

let eval h valuation =
  let m = h.m in
  let rec go n =
    if n < 2 then n = 1 else if valuation (var_of m n) then go (high_of m n) else go (low_of m n)
  in
  go h.id

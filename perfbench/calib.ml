(* Reading the machine's speed, so that times taken on a shared machine
   can be compared across runs.

   On a box shared with other tenants a CPU runs the same instructions
   up to half again slower for seconds at a time, and each CPU does so
   on its own.  The runner therefore pins itself to one CPU and, between
   inputs, times a fixed calibration loop on the CPUs doing the work.
   Every time it reports is scaled by [reference_ns / calibration time]:
   a time in "ms" is the time the work would take on a CPU that runs the
   loop in exactly [reference_ns].  The loop is the benchmark's own
   code, so a change to kpt moves the reported times and a slow phase of
   the machine does not. *)

external allowed_cpus : unit -> int array = "perfbench_allowed_cpus"
external set_affinity : int -> int array -> bool = "perfbench_set_affinity"

(* About what the loop takes on the reference box (2 vCPUs) when quiet. *)
let reference_ns = 1e6

let cpus = allowed_cpus ()

(* Taken before the runner pins itself, which would make it 1. *)
let domains = Domain.recommended_domain_count ()

let home = if Array.length cpus > 0 then Some cpus.(Array.length cpus - 1) else None

(* Another CPU the daemon may run on. *)
let other = if Array.length cpus > 1 then Some cpus.(0) else None

let pin_to cpu = Option.iter (fun c -> ignore (set_affinity 0 [| c |])) cpu
let pin_self () = pin_to home

(* Run [f] with every CPU allowed, so that a process it starts (the
   daemon) is not pinned: its accepting domain must answer the worker's
   stop-the-world collections at once, which on a single CPU costs a
   context switch each and makes it several times slower. *)
let unpinned f =
  ignore (set_affinity 0 cpus);
  Fun.protect ~finally:pin_self f

let now () = Int64.to_float (Kpt_obs.now_ns ())

(* Random updates of a 512 KiB array, then small hash tables built and
   probed.  The tables die young, in the minor heap, so the program's
   major heap is left as it was. *)
let table = Array.make 65536 0

let loop () =
  let t0 = now () in
  let x = ref 1 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0xFFFFFFFF;
    !x lsr 8
  in
  for _ = 1 to 45_000 do
    let i = next () land 65535 in
    table.(i) <- table.(i) lxor !x
  done;
  let hits = ref 0 in
  for _ = 1 to 4 do
    let h = Hashtbl.create 16 in
    for _ = 1 to 1000 do
      Hashtbl.replace h (next () land 4095, !x land 7) ()
    done;
    for _ = 1 to 1000 do
      if Hashtbl.mem h (next () land 4095, !x land 7) then incr hits
    done
  done;
  ignore (Sys.opaque_identity !hits);
  now () -. t0

(* One calibration time.  With [~daemon], the geometric mean of the loop
   on the runner's CPU and on the other one: a served request runs on
   both. *)
let sample ~daemon =
  let here = loop () in
  match other with
  | Some _ when daemon ->
      pin_to other;
      let there = loop () in
      pin_self ();
      sqrt (here *. there)
  | _ -> here

type timing = {
  item_ns : float array;  (* what [f i] returned, scaled *)
  total_ns : float;  (* wall time of all the items, scaled *)
  raw_total_ns : float;
  samples : float array;  (* the calibration times *)
}

(* Run [f 0 .. f (n-1)] in 16 segments with a calibration sample before
   the first and after each.  A segment is scaled by the median of the
   samples within two segments of it: one sample alone is too noisy, a
   whole pass too coarse.  [f i] returns a time to scale (or 0); the
   samples stay out of the totals. *)
let timed ?(daemon = false) n f =
  let every = max 1 (n / 16) in
  let segs = (n + every - 1) / every in
  let item = Array.make n 0. and seg_ns = Array.make segs 0. in
  let samples = Array.make (segs + 1) (sample ~daemon) in
  for s = 0 to segs - 1 do
    let t0 = now () in
    for i = s * every to min n ((s + 1) * every) - 1 do
      item.(i) <- f i
    done;
    seg_ns.(s) <- now () -. t0;
    samples.(s + 1) <- sample ~daemon
  done;
  let total = ref 0. in
  for s = 0 to segs - 1 do
    let lo = max 0 (s - 2) and hi = min segs (s + 3) in
    let k = reference_ns /. Stat.median (Array.sub samples lo (hi - lo + 1)) in
    total := !total +. (seg_ns.(s) *. k);
    for i = s * every to min n ((s + 1) * every) - 1 do
      item.(i) <- item.(i) *. k
    done
  done;
  {
    item_ns = item;
    total_ns = !total;
    raw_total_ns = Array.fold_left ( +. ) 0. seg_ns;
    samples;
  }

(* Spans recorded by the benchmark around its own calls into each layer
   of kpt.  Nothing inside lib/ is instrumented: a span covers exactly
   one public call (Lint.lint_source, Parser.program_of_string,
   Stats.collect, Protocol.write_line, ...).

   Spans are kept in memory and written out when the run ends.  When
   tracing is off, [span] is a single branch around the call, which is
   why the untraced passes of a traced run still measure the untraced
   program. *)

type event = {
  id : int;
  name : string;
  parent : int;  (* -1 at top level *)
  input : int;  (* index of the input the span belongs to *)
  start_ns : int64;
  dur_ns : int64;
  synthetic : bool;
      (* known only as a total (Stats.t.spans): placed end to end from
         its parent's start, so its position, not its length, is made up *)
}

type frame = { fid : int; mutable cursor : int64 }

let on = ref false
let input = ref 0
let events : event list ref = ref []
let next_id = ref 0
let stack : frame list ref = ref []

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let parent_id () = match !stack with f :: _ -> f.fid | [] -> -1

let span name f =
  if not !on then f ()
  else begin
    let id = fresh_id () in
    let parent = parent_id () in
    let start_ns = Kpt_obs.now_ns () in
    stack := { fid = id; cursor = start_ns } :: !stack;
    let close () =
      stack := List.tl !stack;
      events :=
        {
          id;
          name;
          parent;
          input = !input;
          start_ns;
          dur_ns = Int64.sub (Kpt_obs.now_ns ()) start_ns;
          synthetic = false;
        }
        :: !events
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* A child of the innermost open span whose duration [ns] is only known
   as an aggregate.  [inner] may place children of its own. *)
let synthetic ?(inner = fun () -> ()) name ns =
  match !stack with
  | parent :: _ when !on && ns > 0L ->
      let id = fresh_id () in
      let start_ns = parent.cursor in
      stack := { fid = id; cursor = start_ns } :: !stack;
      inner ();
      stack := List.tl !stack;
      parent.cursor <- Int64.add start_ns ns;
      events :=
        {
          id;
          name;
          parent = parent.fid;
          input = !input;
          start_ns;
          dur_ns = ns;
          synthetic = true;
        }
        :: !events
  | _ -> ()

(* The events recorded since the last call, oldest first. *)
let take () =
  let evs = List.rev !events in
  events := [];
  evs

(* Which lib/ module each span name times. *)
let layer_of = function
  | "parse" | "elaborate" -> "kpt_syntax"
  | "lint" | "stats" | "render" -> "kpt_analysis"
  | "si" | "safety" -> "kpt_unity"
  | "kbp.to_standard" | "kbp.iterate" -> "kpt_core"
  | "bdd.reorder" -> "kpt_predicate"
  | "build" -> "kpt_protocols"
  | "leadsto" -> "kpt_logic"
  | "client.encode" | "client.send" | "client.wait" | "client.decode" -> "kpt_serve"
  | _ -> "bench"

(* Self time per span name: each span's duration minus the part its
   children cover, summed over every span of that name. *)
let self_ns evs =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun e ->
      if e.parent >= 0 then
        Hashtbl.replace covered e.parent
          (Int64.add e.dur_ns
             (Option.value ~default:0L (Hashtbl.find_opt covered e.parent))))
    evs;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun e ->
      let self =
        Int64.sub e.dur_ns (Option.value ~default:0L (Hashtbl.find_opt covered e.id))
      in
      Hashtbl.replace by_name e.name
        (Int64.to_float self
        +. Option.value ~default:0. (Hashtbl.find_opt by_name e.name)))
    evs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []

(* Chrome trace-event format: open the file in chrome://tracing or
   https://ui.perfetto.dev. *)
let chrome_json evs =
  let t0 = List.fold_left (fun m e -> min m e.start_ns) Int64.max_int evs in
  let us ns = Json.Float (Int64.to_float ns /. 1e3) in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("name", Json.String e.name);
                   ("cat", Json.String (layer_of e.name));
                   ("ph", Json.String "X");
                   ("ts", us (Int64.sub e.start_ns t0));
                   ("dur", us e.dur_ns);
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ( "args",
                     Json.Obj
                       [
                         ("id", Json.Int e.id);
                         ("parent", Json.Int e.parent);
                         ("input", Json.Int e.input);
                         ("synthetic", Json.Bool e.synthetic);
                       ] );
                 ])
             evs) );
      ("displayTimeUnit", Json.String "ms");
    ]

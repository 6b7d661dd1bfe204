open Kpt_unity
open Kpt_protocols
module Matrix = Kpt_fault.Matrix
module Model = Kpt_fault.Model

(* The bundled-protocol subjects of the resilience matrix: each builder
   re-built under every fault model, its §6 properties re-verified per
   cell.  Sizes are the smallest honest instances (n = 2, a = 2 — "the
   receiver must learn something it does not already know"), so the
   whole matrix stays interactive. *)

let params = { Seqtrans.n = 2; a = 2 }

let forall n f = List.for_all f (List.init n Fun.id)
let forall2 n a f = forall n (fun k -> forall a (fun alpha -> f k alpha))

(* Every channel protocol of the built-in table carries its spec pair. *)
let spec_pair (t : Builtin.instance) =
  let safety = Builtin.safety t in
  [
    { Matrix.prop = "safety (34)"; check = (fun () -> Program.invariant t.prog safety) };
    {
      Matrix.prop = "liveness (35)";
      check = (fun () -> forall params.Seqtrans.n (fun k -> Builtin.liveness_holds t ~k));
    };
  ]

(* Transmit, the standard protocol, carries the paper's full obligation
   set: the spec (34)-(35), the ack invariant (54), the knowledge
   discharge obligations (61)-(62) — the proposed knowledge values of
   (50)-(51) must be sound — and their stability (55)-(56).  The
   discharge rows are where ⊥-detectability earns its keep: an
   undetectably corrupted register satisfies the {e proposed} K_R value
   while falsifying the fact. *)
let transmit =
  let { Seqtrans.n; a } = params in
  {
    Matrix.subject = "transmit";
    build =
      (fun fault ->
        let st = Seqtrans.standard ~fault params in
        let inv p = Program.invariant st.sprog p in
        spec_pair { Builtin.prog = st.sprog; j = st.j; ws = st.ws; xs = st.xs }
        @ [
            {
              Matrix.prop = "ack invariant (54)";
              check = (fun () -> forall (n + 1) (fun k -> inv (Seqtrans.inv54 st ~k)));
            };
            {
              Matrix.prop = "K_R discharge (61)";
              check = (fun () -> forall2 n a (fun k alpha -> inv (Seqtrans.inv61 st ~k ~alpha)));
            };
            {
              Matrix.prop = "K_S K_R discharge (62)";
              check = (fun () -> forall n (fun k -> inv (Seqtrans.inv62 st ~k)));
            };
            {
              Matrix.prop = "stability (55)";
              check = (fun () -> forall n (fun k -> Seqtrans.stable55_holds st ~k));
            };
            {
              Matrix.prop = "stability (56)";
              check =
                (fun () -> forall2 n a (fun k alpha -> Seqtrans.stable56_holds st ~k ~alpha));
            };
          ]);
  }

(* the standard protocol's row is [transmit] *)
let subjects =
  transmit
  :: List.filter_map
       (fun (b : Builtin.t) ->
         match b.build with
         | Builtin.On_channel build when b.name <> "standard" ->
             Some { Matrix.subject = b.name; build = (fun fault -> spec_pair (build fault params)) }
         | _ -> None)
       Builtin.all

let run ?budget ?faults () = Matrix.run ?budget ?faults subjects

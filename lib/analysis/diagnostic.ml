open Kpt_syntax

type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  file : string option;
  span : Loc.span option;
  message : string;
  hint : string option;
}

let v severity ?file ?span ?hint ~code message =
  { code; severity; file; span; message; hint }

let error ?file ?span ?hint ~code message = v Error ?file ?span ?hint ~code message
let warning ?file ?span ?hint ~code message = v Warning ?file ?span ?hint ~code message
let info ?file ?span ?hint ~code message = v Info ?file ?span ?hint ~code message

let with_file file d = match d.file with Some _ -> d | None -> { d with file = Some file }

let severity_label = function Error -> "error" | Warning -> "warning" | Info -> "info"
let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare a b =
  let span_key = function None -> Loc.dummy | Some s -> s in
  let c = Loc.compare (span_key a.span) (span_key b.span) in
  if c <> 0 then c
  else
    let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
    if c <> 0 then c else String.compare a.code b.code

let is_error d = d.severity = Error

let of_exn ?file = function
  | Token.Lex_error (span, msg) -> Some (error ?file ~span ~code:"KPT001" msg)
  | Parser.Parse_error (span, msg) -> Some (error ?file ~span ~code:"KPT002" msg)
  | Elaborate.Elab_error (span, msg) -> Some (error ?file ?span ~code:"KPT003" msg)
  | Kpt_unity.Program.Ill_formed msg | Kpt_core.Kbp.Ill_formed msg ->
      Some (error ?file ~code:"KPT003" msg)
  | Kpt_predicate.Budget.Exhausted reason ->
      Some
        (error ?file ~code:"KPT041"
           ~hint:
             "raise --timeout/--fuel, or check this file on its own to see how far the \
              solver gets"
           (Printf.sprintf "resource budget exhausted: %s"
              (Kpt_predicate.Budget.reason_to_string reason)))
  | _ -> None

(* The one place a source becomes a spec.  Each file is parsed and
   elaborated exactly once, and every way that can fail comes back as a
   single diagnostic; the AST is returned too, for the syntactic lint
   passes, whenever parsing succeeded. *)
let load ?file src =
  let fail e = Stdlib.Error (Option.get (of_exn ?file e)) in
  match Parser.program_of_string src with
  | exception ((Token.Lex_error _ | Parser.Parse_error _) as e) -> (None, fail e)
  | ast -> (Some ast, try Ok (Elaborate.program ast) with Elaborate.Elab_error _ as e -> fail e)

let pp fmt d =
  (match (d.file, d.span) with
  | Some f, Some s -> Format.fprintf fmt "%s:%d:%d: " f s.Loc.line s.Loc.col
  | Some f, None -> Format.fprintf fmt "%s: " f
  | None, Some s -> Format.fprintf fmt "%d:%d: " s.Loc.line s.Loc.col
  | None, None -> ());
  Format.fprintf fmt "%s[%s]: %s" (severity_label d.severity) d.code d.message

let nth_line src n =
  (* n is 1-based; returns None past the end *)
  let rec go start n =
    if start > String.length src then None
    else
      let stop =
        match String.index_from_opt src start '\n' with
        | Some i -> i
        | None -> String.length src
      in
      if n = 1 then Some (String.sub src start (stop - start))
      else go (stop + 1) (n - 1)
  in
  if n <= 0 then None else go 0 n

let pp_excerpt ~src fmt d =
  pp fmt d;
  (match d.span with
  | Some { Loc.line; col } when line > 0 -> (
      match nth_line src line with
      | Some text ->
          let prefix = Printf.sprintf "%4d | " line in
          Format.fprintf fmt "@,%s%s" prefix text;
          let pad = String.length prefix + col - 1 in
          Format.fprintf fmt "@,%s^" (String.make pad ' ')
      | None -> ())
  | _ -> ());
  match d.hint with
  | Some h -> Format.fprintf fmt "@,  hint: %s" h
  | None -> ()

let summary ds =
  let count sev = List.length (List.filter (fun d -> d.severity = sev) ds) in
  let part n what = if n = 0 then [] else [ Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s") ] in
  String.concat ", " (part (count Error) "error" @ part (count Warning) "warning" @ part (count Info) "info")

let exit_code ?(warn_error = false) ds =
  let bad d =
    match d.severity with Error -> true | Warning -> warn_error | Info -> false
  in
  if List.exists (fun d -> d.code = "KPT041") ds then 3
  else if List.exists bad ds then 1
  else 0

(* The JSON codec behind the serve wire, [--json] output and the corpus
   manifests.

   - round-trip laws: [of_string (to_string v) = v] and
     [of_string (to_pretty v) = v], floats compared bit for bit, over
     nested values whose strings (keys included) range over all 256 byte
     values, with integers past the [int] range and integral and
     subnormal floats
   - the pretty layout and the float format on fixed values
   - the printer's bytes for every single byte, pinned in
     golden/json_bytes.txt (one line per byte: the byte, then the hex of
     the encoded string; a last line for the string of all 256 bytes in
     order), produced by the byte-at-a-time printer this one replaced
   - malformed inputs and the exact messages they raise
   - surrogate pairs: an escaped pair decodes to the 4-byte UTF-8 of its
     code point, a lone surrogate is an error *)

let parse_error s =
  match Json.of_string s with
  | v -> Error (Json.to_string v)
  | exception Json.Parse_error m -> Ok m

(* ---- the round-trip law ------------------------------------------------------ *)

let gen_bytes =
  QCheck.Gen.(
    frequency
      [
        (4, string_size ~gen:char (int_bound 24));
        (1, oneofl [ "caf\xc3\xa9 \xe2\x82\xac"; "\xf0\x9f\x98\x80"; "\x00\x1f\x7f\n\t"; "\"\\/" ]);
      ])

let gen_int =
  QCheck.Gen.(
    frequency
      [
        (4, int);
        (2, small_signed_int);
        (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1 ]);
      ])

(* digits past [max_int] (and below [min_int]): 19 or more, led by 9 *)
let gen_bigint =
  QCheck.Gen.(
    map2
      (fun neg ds -> (if neg then "-9" else "9") ^ ds)
      bool
      (string_size ~gen:(char_range '0' '9') (int_range 18 40)))

(* non-finite floats print as [null], so only finite ones round-trip *)
let gen_float =
  QCheck.Gen.(
    map
      (fun f -> if Float.is_finite f then f else 0.5)
      (frequency
         [
           (3, float);
           (2, float_range (-1e3) 1e3);
           (1, map float_of_int int);
           (1, map (fun m -> Float.ldexp (float_of_int m) (-1074)) (int_bound ((1 lsl 52) - 1)));
           (1, oneofl [ 0.0; -0.0; 1.0; 1e20; 2. ** 62.; Float.min_float; Float.max_float ]);
         ]))

let gen_json =
  QCheck.Gen.(
    sized_size (int_bound 4)
    @@ fix (fun self depth ->
           let leaf =
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) gen_int;
               map (fun s -> Json.Bigint s) gen_bigint;
               map (fun f -> Json.Float f) gen_float;
               map (fun s -> Json.String s) gen_bytes;
             ]
           in
           if depth = 0 then oneof leaf
           else
             frequency
               [
                 (3, oneof leaf);
                 (1, map (fun l -> Json.List l) (list_size (int_bound 5) (self (depth - 1))));
                 ( 1,
                   map
                     (fun kvs -> Json.Obj kvs)
                     (list_size (int_bound 5) (pair gen_bytes (self (depth - 1)))) );
               ]))

(* structural equality, but floats bit for bit ([-0.0] is not [0.0]) *)
let rec equal (a : Json.t) (b : Json.t) =
  match (a, b) with
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | List xs, List ys -> List.equal equal xs ys
  | Obj xs, Obj ys -> List.equal (fun (k, v) (k', v') -> String.equal k k' && equal v v') xs ys
  | a, b -> a = b

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json: of_string (to_string v) = v"
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v ->
      let s = Json.to_string v in
      (not (String.contains s '\n')) && equal (Json.of_string s) v && Json.to_line v = s ^ "\n")

let prop_pretty_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json: of_string (to_pretty v) = v"
    (QCheck.make ~print:Json.to_pretty gen_json)
    (fun v ->
      let s = Json.to_pretty v in
      String.ends_with ~suffix:"\n" s && equal (Json.of_string s) v)

(* ---- the pretty layout and the float format ---------------------------------- *)

let test_pretty_layout () =
  let ints n = List.init n (fun i -> Json.Int i) in
  let keyed n = Json.Obj (List.init n (fun i -> (string_of_int i, Json.Int i))) in
  List.iter
    (fun (v, want) -> Alcotest.(check string) want want (Json.to_pretty v))
    [
      (Json.Int 1, "1\n");
      (Json.List [], "[]\n");
      (Json.Obj [], "{}\n");
      (Json.List (ints 8), "[0, 1, 2, 3, 4, 5, 6, 7]\n");
      (Json.List (ints 9), "[\n  0,\n  1,\n  2,\n  3,\n  4,\n  5,\n  6,\n  7,\n  8\n]\n");
      (keyed 2, "{ \"0\": 0, \"1\": 1 }\n");
      ( Json.Obj [ ("a", Json.List []); ("b", Json.Obj []); ("c", Json.String "x\ny") ],
        "{ \"a\": [], \"b\": {}, \"c\": \"x\\ny\" }\n" );
      ( Json.Obj [ ("k", keyed 1); ("l", Json.List [ Json.List [ Json.Null ] ]) ],
        "{\n  \"k\": { \"0\": 0 },\n  \"l\": [\n    [null]\n  ]\n}\n" );
      ( Json.List [ keyed 9 ],
        "[\n  {\n    \"0\": 0,\n    \"1\": 1,\n    \"2\": 2,\n    \"3\": 3,\n    \"4\": 4,\n\
        \    \"5\": 5,\n    \"6\": 6,\n    \"7\": 7,\n    \"8\": 8\n  }\n]\n" );
    ]

let test_float_format () =
  List.iter
    (fun (f, want) -> Alcotest.(check string) want want (Json.to_string (Json.Float f)))
    [
      (0.1, "0.1");
      (0.225, "0.225");
      (1.0, "1.0");
      (-0.0, "-0.0");
      (-3.0, "-3.0");
      (1e20, "1e+20");
      (2. ** 62., "4.611686018427388e+18");
      (0.1 +. 0.2, "0.30000000000000004");
      (5e-324, "4.94065645841247e-324");
      (Float.nan, "null");
      (Float.infinity, "null");
    ]

(* ---- the printer's bytes ----------------------------------------------------- *)

let hex s =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

let test_printer_golden () =
  let printed =
    List.init 256 (fun i ->
        Printf.sprintf "%d %s" i (hex (Json.to_string (Json.String (String.make 1 (Char.chr i))))))
    @ [ "all " ^ hex (Json.to_string (Json.String (String.init 256 Char.chr))) ]
  in
  Alcotest.(check string)
    "every byte prints as golden/json_bytes.txt says"
    (Helpers.slurp "golden/json_bytes.txt")
    (String.concat "\n" printed ^ "\n")

(* ---- malformed input ---------------------------------------------------------

   The messages are the ones the codec raised before it was made strict,
   except where a comment says otherwise: inputs it used to accept
   (RFC 8259 forbids them) and a stray character where a value belongs,
   which it used to report as an empty number. *)

let malformed =
  [
    ("", "unexpected end of input");
    ("   ", "unexpected end of input");
    ("{", "expected '\"' at offset 1, got end of input");
    ("{\"a\"", "expected ':' at offset 4, got end of input");
    ("{\"a\":1", "expected ',' or '}' at offset 6");
    ("{\"a\":1,}", "expected '\"' at offset 7, got '}'");
    ("{\"a\" 1}", "expected ':' at offset 5, got '1'");
    ("{1:2}", "expected '\"' at offset 1, got '1'");
    ("{,}", "expected '\"' at offset 1, got ','");
    ("[", "unexpected end of input");
    ("[1 2]", "expected ',' or ']' at offset 3");
    ("[1]x", "trailing input at offset 3");
    ("1 2", "trailing input at offset 2");
    ("nulll", "trailing input at offset 4");
    ("\"abc", "unterminated string");
    ("\"\\", "truncated escape");
    ("\"\\x\"", "invalid escape '\\x'");
    ("\"\\u12\"", "truncated \\u escape");
    ("\"\\u123\"", "invalid \\u escape at offset 1");
    ("\"\\uZZZZ\"", "invalid \\u escape at offset 1");
    ("tru", "invalid literal at offset 0");
    ("nul", "invalid literal at offset 0");
    ("fals", "invalid literal at offset 0");
    ("-", "invalid number \"-\" at offset 0");
    ("1e", "invalid number \"1e\" at offset 0");
    ("1e+", "invalid number \"1e+\" at offset 0");
    ("1-2", "invalid number \"1-2\" at offset 0");
    ("--1", "invalid number \"--1\" at offset 0");
    (* was: invalid number "" at offset N *)
    ("[1,]", "unexpected ']' at offset 3");
    ("]", "unexpected ']' at offset 0");
    ("@", "unexpected '@' at offset 0");
    ("{\"a\":}", "unexpected '}' at offset 5");
    ("[,1]", "unexpected ',' at offset 1");
    (* was accepted *)
    ("+5", "invalid number \"+5\" at offset 0");
    ("01", "invalid number \"01\" at offset 0");
    ("-01", "invalid number \"-01\" at offset 0");
    ("1.", "invalid number \"1.\" at offset 0");
    (".5", "invalid number \".5\" at offset 0");
    ("1.e5", "invalid number \"1.e5\" at offset 0");
    ("\"a\nb\"", "unescaped control character 0x0a at offset 2");
    ("\"a\tb\"", "unescaped control character 0x09 at offset 2");
    ("\"\\u12_3\"", "invalid \\u escape at offset 1");
    ("\"\\ud83d\"", "lone surrogate \\ud83d at offset 1");
    ("\"\\ude00\"", "lone surrogate \\ude00 at offset 1");
    ("\"\\ud83dx\"", "lone surrogate \\ud83d at offset 1");
    ("\"\\ud83d\\u0041\"", "lone surrogate \\ud83d at offset 1");
    ("\"\\ud83d\\ud83d\"", "lone surrogate \\ud83d at offset 1");
  ]

let test_malformed () =
  List.iter
    (fun (input, msg) ->
      Alcotest.(check (result string string)) (Printf.sprintf "%S" input) (Ok msg) (parse_error input))
    malformed

let test_accepted () =
  List.iter
    (fun (input, v) ->
      Alcotest.(check string) (Printf.sprintf "%S" input) (Json.to_string v)
        (Json.to_string (Json.of_string input)))
    [
      (" 0 ", Json.Int 0);
      ("-0", Json.Int 0);
      ("4611686018427387903", Json.Int max_int);
      ("-4611686018427387904", Json.Int min_int);
      ("123456789012345678", Json.Int 123456789012345678);
      ("4611686018427387904", Json.Bigint "4611686018427387904");
      ("-4611686018427387905", Json.Bigint "-4611686018427387905");
      ("4.611686018427388e+18", Json.Float 4611686018427387904.);
      ("1.0", Json.Float 1.);
      ("1.5e+2", Json.Float 150.);
      ("2E-1", Json.Float 0.2);
      ("\t[ true , false , null ]\r\n", Json.List [ Json.Bool true; Json.Bool false; Json.Null ]);
      ("{\"a\":{},\"b\":[]}", Json.Obj [ ("a", Json.Obj []); ("b", Json.List []) ]);
      ("\"\\/\\b\\f\\\"\\\\\"", Json.String "/\b\012\"\\");
      ("\"\\u00e9\\u20AC\\u0000\"", Json.String "\xc3\xa9\xe2\x82\xac\x00");
      ("\"\x7f\xff\"", Json.String "\x7f\xff");
    ]

let test_surrogate_pairs () =
  Alcotest.(check string) "U+1F600 is F0 9F 98 80" "\xf0\x9f\x98\x80"
    (match Json.of_string "\"\\ud83d\\ude00\"" with Json.String s -> s | _ -> "");
  Alcotest.(check string) "U+10000 and U+10FFFF around plain text" "a\xf0\x90\x80\x80b\xf4\x8f\xbf\xbf"
    (match Json.of_string "\"a\\uD800\\uDC00b\\udbff\\udfff\"" with Json.String s -> s | _ -> "")

let test_member_first_key () =
  let j = Json.of_string "{\"k\":1,\"kk\":2,\"k\":3}" in
  Alcotest.(check (option int))
    "first of a repeated key" (Some 1)
    (Option.bind (Json.member "k" j) Json.to_int);
  Alcotest.(check (option int)) "absent key" None (Option.bind (Json.member "x" j) Json.to_int);
  Alcotest.(check bool) "not an object" true (Json.member "k" (Json.List []) = None)

let suite =
  List.map
    (QCheck_alcotest.to_alcotest ~rand:(Helpers.rng ()))
    [ prop_roundtrip; prop_pretty_roundtrip ]
  @ [
      Alcotest.test_case "pretty layout" `Quick test_pretty_layout;
      Alcotest.test_case "float format: shortest round-trip, .0 on integral" `Quick
        test_float_format;
      Alcotest.test_case "printer bytes for every byte match the golden" `Quick test_printer_golden;
      Alcotest.test_case "malformed input: messages" `Quick test_malformed;
      Alcotest.test_case "accepted input" `Quick test_accepted;
      Alcotest.test_case "surrogate pairs decode to 4-byte UTF-8" `Quick test_surrogate_pairs;
      Alcotest.test_case "member finds the first key" `Quick test_member_first_key;
    ]

(* Compact JSON rendering, shared by the CLI subcommands and the
   daemon. Attribute and module names are identifiers; [escape] handles
   arbitrary text anyway (error messages, inline workflow sources). *)

let escape = Svutil.Json.escape
let str s = "\"" ^ escape s ^ "\""
let list items = "[" ^ String.concat "," (List.map str items) ^ "]"

let assoc kvs =
  "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) kvs) ^ "}"

let solution (s : Core.Solution.t) =
  Printf.sprintf {|{"cost":%s,"hidden":%s,"privatized":%s}|}
    (str (Rat.to_string s.Core.Solution.cost))
    (list s.Core.Solution.hidden)
    (list s.Core.Solution.privatized)

let engine_result ?(timings = true) (r : Core.Engine.result) =
  assoc
    ([
       ("method", str (Core.Engine.meth_to_string r.Core.Engine.method_used));
       ( "solution",
         match r.Core.Engine.solution with
         | Some s -> solution s
         | None -> "null" );
       ("proven_optimal", string_of_bool r.Core.Engine.proven_optimal);
     ]
    @ (match r.Core.Engine.lower_bound with
      | Some b -> [ ("lower_bound", str (Rat.to_string b)) ]
      | None -> [])
    @ (match Core.Engine.ratio r with
      | Some x -> [ ("ratio", Printf.sprintf "%.6g" x) ]
      | None -> [])
    @ (if timings then
         [
           ( "timings_ms",
             assoc
               (List.map
                  (fun (k, v) -> (k, Printf.sprintf "%.3f" v))
                  r.Core.Engine.timings) );
         ]
       else [])
    @ [
        ( "stats",
          assoc (List.map (fun (k, v) -> (k, str v)) r.Core.Engine.stats) );
      ]
    (* Live registries (--metrics json / "metrics":true) ride along; the
       nop default adds nothing to the output. *)
    @ (if Svutil.Metrics.enabled r.Core.Engine.metrics then
         [ ("metrics", Svutil.Metrics.to_json r.Core.Engine.metrics) ]
       else []))

let id_fields = function None -> [] | Some id -> [ ("id", str id) ]

let error ?id e =
  assoc
    (id_fields id
    @ [
        ("ok", "false");
        ( "error",
          assoc
            [
              ("kind", str (Request.kind e));
              ("code", string_of_int (Request.exit_code e));
              ("message", str (Request.message e));
            ] );
      ])

let ok_fields ?id fields = assoc (id_fields id @ (("ok", "true") :: fields))

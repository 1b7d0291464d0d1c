(* Request inputs: seeded Secure-View specs printed as .swf text and
   wrapped in serve protocol lines.

   Each workload draws from a fixed universe of specs. Universe member
   [i] is generated from its own RNG, seeded by a stable hash of the
   universe name and [i], so any member can be built without the
   others and the recorded optima in expected.json stay valid for every
   run seed. The run seed chooses which members a run sends, in which
   order, and under which fresh names. *)

module Rng = Svutil.Rng
module W = Wf.Wmodule

(* djb2 over the bytes: stable across OCaml versions, unlike
   [Hashtbl.hash]. *)
let hash31 s =
  String.fold_left (fun h c -> ((h * 33) + Char.code c) land 0x3FFFFFFF) 5381 s

type universe = { u_name : string; u_size : int; params : Wf.Gen.params }

(* 8 modules, gamma 2, 30% public. hot keeps modules at <= 3 inputs so
   its misses stay cheap to prime; cold allows 4, which makes derive
   and the engine the bulk of a miss. *)
let hot_universe =
  {
    u_name = "hot";
    u_size = 512;
    params = { Wf.Gen.default with n_modules = 8; max_inputs = 3; max_outputs = 2 };
  }

let cold_universe =
  {
    u_name = "cold";
    u_size = 16384;
    params = { Wf.Gen.default with n_modules = 8; max_inputs = 4; max_outputs = 2 };
  }

let gamma = 2

type t = {
  index : int;
  workflow : Wf.Workflow.t;
  costs : (string * int) list;  (** every attribute, workflow order *)
  publics : (string * int) list;  (** public module, privatization cost *)
}

let int_of_rat r = int_of_string (Rat.to_string r)

let member u index =
  let rng = Rng.create (hash31 (Printf.sprintf "%s|%d" u.u_name index)) in
  let workflow = Wf.Gen.random_workflow rng u.params in
  let costs =
    List.map (fun (a, c) -> (a, int_of_rat c)) (Wf.Gen.random_costs rng workflow)
  in
  let publics =
    List.map
      (fun (m, c) -> (m, int_of_rat c))
      (Wf.Gen.random_publics rng ~frac:0.3 workflow)
  in
  { index; workflow; costs; publics }

(* Every name a spec declares: attributes and modules. *)
let names s =
  List.map fst s.costs @ Wf.Workflow.module_names s.workflow

(* The .swf text under a renaming. A common prefix keeps the names'
   relative order, so a renamed spec costs the solver the same work as
   its base. *)
let text ?(prefix = "") s =
  let b = Buffer.create 2048 in
  let nm x = prefix ^ x in
  let names l = String.concat " " (List.map nm l) in
  let ints a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
  Printf.bprintf b "gamma %d\n" gamma;
  List.iter (fun (a, c) -> Printf.bprintf b "attr %s cost %d\n" (nm a) c) s.costs;
  List.iter
    (fun (m : W.t) ->
      let name = m.W.name in
      let kind =
        match List.assoc_opt name s.publics with
        | Some c -> Printf.sprintf "public cost %d" c
        | None -> "private"
      in
      Printf.bprintf b "module %s %s inputs %s outputs %s\n" (nm name) kind
        (names (W.input_names m))
        (names (W.output_names m));
      List.iter
        (fun x ->
          match W.apply m x with
          | Some y -> Printf.bprintf b "row %s %s -> %s\n" (nm name) (ints x) (ints y)
          | None -> ())
        (W.defined_inputs m))
    (Wf.Workflow.modules s.workflow);
  Buffer.contents b

(* One solve request with default options and no id, so a verbatim
   resubmission is byte-identical to its first submission. *)
let line ?prefix s =
  Printf.sprintf {|{"op":"solve","workflow":"%s"}|} (Svutil.Json.escape (text ?prefix s))

(* A request: the protocol line, its universe member, and the prefix
   that renamed it ("" = verbatim). *)
type request = { line : string; spec : t; prefix : string }

let request ?(prefix = "") spec = { line = line ~prefix spec; spec; prefix }

(* {1 Workload streams} *)

(* Work proxy for a spec: the standalone analysis of a private module
   scans its table once per subset of its attributes. *)
let weight s =
  List.fold_left
    (fun acc (m : W.t) ->
      if List.mem_assoc m.W.name s.publics then acc
      else acc + (List.length (W.defined_inputs m) lsl W.arity m))
    0
    (Wf.Workflow.modules s.workflow)

(* hot: 16 members picked by the seed, one from each sixteenth of the
   universe ranked by [weight], so every seed's pool mixes light and
   heavy specs alike. Members 0-7 of the pool resubmit verbatim; 8-15
   resubmit under a fresh prefix every time. *)
let pool_size = 16

let hot_strata =
  lazy
    (let ranked =
       List.init hot_universe.u_size (fun i ->
           let s = member hot_universe i in
           (weight s, i))
       |> List.sort compare |> List.map snd |> Array.of_list
     in
     let per = hot_universe.u_size / pool_size in
     Array.init pool_size (fun k -> Array.sub ranked (k * per) per))

let hot_pool ~seed =
  let rng = Rng.create (hash31 (Printf.sprintf "hot-pool|%d" seed)) in
  let picks =
    Array.map
      (fun stratum -> stratum.(Rng.int rng (Array.length stratum)))
      (Lazy.force hot_strata)
  in
  let order = Array.of_list (Rng.shuffle rng (Array.to_list picks)) in
  Array.map (member hot_universe) order

(* Requests [from, from + n) of the hot stream: each resubmits a pool
   member drawn by a seeded RNG. Renamed request [k] carries the prefix
   "h<k>_", which no base name uses (base names are x<n>, d<n>, m<n>). *)
let hot_requests ~seed pool ~from ~n =
  let rng = Rng.create (hash31 (Printf.sprintf "hot-stream|%d|%d" seed from)) in
  Array.init n (fun j ->
      let k = from + j in
      let p = Rng.int rng (Array.length pool) in
      let spec = pool.(p) in
      if p < Array.length pool / 2 then request spec
      else request ~prefix:(Printf.sprintf "h%d_" k) spec)

(* cold: a seeded walk over the cold universe with a stride coprime to
   its size, so a run visits distinct members until it has sent the
   whole universe. Every request is renamed ("c<k>_"). *)
let cold_walk ~seed =
  let rng = Rng.create (hash31 (Printf.sprintf "cold-walk|%d" seed)) in
  let size = cold_universe.u_size in
  let start = Rng.int rng size in
  (* size is a power of two: any odd stride is coprime to it *)
  let stride = (2 * Rng.int rng (size / 2)) + 1 in
  fun k -> (start + (k * stride)) mod size

let cold_requests ~seed ~from ~n =
  let walk = cold_walk ~seed in
  Array.init n (fun j ->
      let k = from + j in
      request ~prefix:(Printf.sprintf "c%d_" k) (member cold_universe (walk k)))

(* Warm-up requests for cold set-up: the walk read backwards from the
   end, so they never collide with the first timed requests. *)
let cold_warmup ~seed ~n =
  let walk = cold_walk ~seed in
  Array.init n (fun j ->
      request ~prefix:(Printf.sprintf "w%d_" j)
        (member cold_universe (walk (cold_universe.u_size - 1 - j))))

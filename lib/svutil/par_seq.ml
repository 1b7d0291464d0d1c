(* Sequential fallback, selected by dune on OCaml 4.x where Domains are
   unavailable. Kept signature-identical with par_domains.ml; see
   par.mli. *)

let available = false
let default_jobs () = 1
let map_array ?jobs:_ f xs = Array.map f xs
let map ?jobs:_ f l = List.map f l

let domain_local init =
  let v = lazy (init ()) in
  fun () -> Lazy.force v

(** Reduction operators of the simulated MPI library. *)

type t = Sum | Prod | Max | Min | Land | Lor

let to_string = function
  | Sum -> "MPI_SUM"
  | Prod -> "MPI_PROD"
  | Max -> "MPI_MAX"
  | Min -> "MPI_MIN"
  | Land -> "MPI_LAND"
  | Lor -> "MPI_LOR"

let apply2 op a b =
  match op with
  | Sum -> a + b
  | Prod -> a * b
  | Max -> Int.max a b
  | Min -> Int.min a b
  | Land -> if a <> 0 && b <> 0 then 1 else 0
  | Lor -> if a <> 0 || b <> 0 then 1 else 0

(** Folds [op] over a non-empty list of contributions.
    @raise Invalid_argument on an empty list. *)
let fold op = function
  | [] -> invalid_arg "Op.fold: empty contribution list"
  | x :: rest -> List.fold_left (apply2 op) x rest

let pp ppf op = Fmt.string ppf (to_string op)

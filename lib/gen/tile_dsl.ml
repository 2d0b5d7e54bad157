(* See tile_dsl.mli. The invariants validate enforces are exactly the ones
   Tile_lower relies on; lower never re-checks them. *)

type dtype = I32 | F32

type array_decl = { aname : string; dtype : dtype; input : bool; elems : int }
type affine = { coeffs : (string * int) list; const : int }
type ibin = Add | Sub | Mul | And | Or | Xor
type fbin = Fadd | Fsub | Fmul | Fmin | Fmax
type cmp = Lt | Ge | Eq | Ne

type exp =
  | Iconst of int
  | Fconst of float
  | Ivar of string
  | Itmp of int
  | Ftmp of int
  | Iload of string * affine
  | Fload of string * affine
  | Ibin of ibin * exp * exp
  | Fbin of fbin * exp * exp
  | I2f of exp
  | F2i of exp

type stmt =
  | Iset of int * exp
  | Fset of int * exp
  | Istore of string * affine * exp
  | Fstore of string * affine * exp
  | If of cmp * exp * exp * stmt list
  | For of for_loop

and for_loop = {
  var : string;
  extent : int;
  tile_tag : string option;
  body : stmt list;
}

type spec = {
  sname : string;
  seed : int;
  arrays : array_decl list;
  body : stmt list;
}

(* -------------------- resource limits -------------------- *)

let max_arrays = 4
let max_temps = 3
let max_depth = 5
let max_extent = 1024
let max_volume = 200_000
let max_scratch = 5
let array_slot_bytes = 0x40000
let array_base = 0x100000

(* -------------------- combinators -------------------- *)

let array_i ?(input = true) aname elems = { aname; dtype = I32; input; elems }
let array_f ?(input = true) aname elems = { aname; dtype = F32; input; elems }
let idx ?(const = 0) coeffs = { coeffs; const }
let for_ var extent body = For { var; extent; tile_tag = None; body }
let if_ c e1 e2 body = If (c, e1, e2, body)
let accum_i t op e = Iset (t, Ibin (op, Itmp t, e))
let accum_f t op e = Fset (t, Fbin (op, Ftmp t, e))

(* -------------------- tiling -------------------- *)

(* Bottom-up rewrite, except [fe] gets first shot at every node: a match
   replaces the whole subtree without descending into the replacement. *)
let map_stmts ~exp:fe ~aff:fa stmts =
  let rec go_e e =
    let e' = fe e in
    if e' != e then e'
    else
      match e with
      | Iconst _ | Fconst _ | Itmp _ | Ftmp _ | Ivar _ -> e
      | Iload (a, aff) -> Iload (a, fa aff)
      | Fload (a, aff) -> Fload (a, fa aff)
      | Ibin (op, l, r) -> Ibin (op, go_e l, go_e r)
      | Fbin (op, l, r) -> Fbin (op, go_e l, go_e r)
      | I2f e -> I2f (go_e e)
      | F2i e -> F2i (go_e e)
  and go_s = function
    | Iset (t, e) -> Iset (t, go_e e)
    | Fset (t, e) -> Fset (t, go_e e)
    | Istore (a, aff, e) -> Istore (a, fa aff, go_e e)
    | Fstore (a, aff, e) -> Fstore (a, fa aff, go_e e)
    | If (c, e1, e2, body) -> If (c, go_e e1, go_e e2, List.map go_s body)
    | For l -> For { l with body = List.map go_s l.body }
  in
  List.map go_s stmts

let tile ~t stmt =
  match stmt with
  | For { var; extent; tile_tag = None; body } when t > 1 && extent mod t = 0 ->
    let vo = var ^ "_o" and vi = var ^ "_i" in
    let fe = function
      | Ivar v when v = var ->
        Ibin (Add, Ibin (Mul, Ivar vo, Iconst t), Ivar vi)
      | e -> e
    in
    let fa (aff : affine) =
      let coeffs =
        List.concat_map
          (fun (v, c) -> if v = var then [ (vo, c * t); (vi, c) ] else [ (v, c) ])
          aff.coeffs
      in
      { aff with coeffs }
    in
    let body' = map_stmts ~exp:fe ~aff:fa body in
    Ok
      (For
         {
           var = vo;
           extent = extent / t;
           tile_tag = Some var;
           body =
             [ For { var = vi; extent = t; tile_tag = Some var; body = body' } ];
         })
  | For { tile_tag = Some _; _ } -> Error "already tiled"
  | For _ -> Error "tile factor must divide the extent and exceed 1"
  | _ -> Error "tile expects a For"

let untile stmt =
  match stmt with
  | For
      {
        var = vo;
        extent = eo;
        tile_tag = Some v;
        body = [ For { var = vi; extent = t; tile_tag = Some v'; body } ];
      }
    when v = v' && vo = v ^ "_o" && vi = v ^ "_i" ->
    let ok = ref true in
    let fe = function
      | Ibin (Add, Ibin (Mul, Ivar o, Iconst t'), Ivar i)
        when o = vo && i = vi && t' = t ->
        Ivar v
      | (Ivar x) as e ->
        if x = vo || x = vi then ok := false;
        e
      | e -> e
    in
    let fa (aff : affine) =
      let rec fuse = function
        | (o, co) :: (i, ci) :: rest when o = vo && i = vi ->
          if co <> ci * t then ok := false;
          (v, ci) :: fuse rest
        | (x, c) :: rest ->
          if x = vo || x = vi then ok := false;
          (x, c) :: fuse rest
        | [] -> []
      in
      { aff with coeffs = fuse aff.coeffs }
    in
    let body' = map_stmts ~exp:fe ~aff:fa body in
    if !ok then Some (For { var = v; extent = eo * t; tile_tag = None; body = body' })
    else None
  | _ -> None

(* -------------------- analysis -------------------- *)

let rec stmt_count_list stmts =
  List.fold_left
    (fun acc s ->
      acc
      +
      match s with
      | Iset _ | Fset _ | Istore _ | Fstore _ -> 1
      | If (_, _, _, body) -> 1 + stmt_count_list body
      | For l -> 1 + stmt_count_list l.body)
    0 stmts

let stmt_count spec = stmt_count_list spec.body

let rec exp_fp = function
  | Fconst _ | Ftmp _ | Fload _ | Fbin _ | I2f _ -> true
  | Iconst _ | Ivar _ | Itmp _ | Iload _ -> false
  | Ibin (_, l, r) -> exp_fp l || exp_fp r
  | F2i e -> exp_fp e

let fp_spec spec =
  let rec go = function
    | Iset (_, e) -> exp_fp e
    | Fset _ | Fstore _ -> true
    | Istore (_, _, e) -> exp_fp e
    | If (_, e1, e2, body) -> exp_fp e1 || exp_fp e2 || List.exists go body
    | For l -> List.exists go l.body
  in
  List.exists go spec.body

let rec find_for = function
  | [] -> None
  | For l :: _ -> Some l
  | _ :: rest -> find_for rest

let innermost spec =
  let rec go (l : for_loop) =
    match find_for l.body with None -> l | Some l' -> go l'
  in
  Option.map go (find_for spec.body)

let outer_extent spec =
  match find_for spec.body with Some l -> l.extent | None -> 0

(* Arrays loaded / stored in a loop-free statement list. *)
let rec exp_loads acc = function
  | Iconst _ | Fconst _ | Ivar _ | Itmp _ | Ftmp _ -> acc
  | Iload (a, _) | Fload (a, _) -> a :: acc
  | Ibin (_, l, r) | Fbin (_, l, r) -> exp_loads (exp_loads acc l) r
  | I2f e | F2i e -> exp_loads acc e

let rec body_loads acc = function
  | [] -> acc
  | (Iset (_, e) | Fset (_, e)) :: rest -> body_loads (exp_loads acc e) rest
  | (Istore (_, _, e) | Fstore (_, _, e)) :: rest ->
    body_loads (exp_loads acc e) rest
  | If (_, e1, e2, body) :: rest ->
    body_loads (body_loads (exp_loads (exp_loads acc e1) e2) body) rest
  | For l :: rest -> body_loads (body_loads acc l.body) rest

let rec body_stores acc = function
  | [] -> acc
  | (Istore (a, aff, _) | Fstore (a, aff, _)) :: rest ->
    body_stores ((a, aff) :: acc) rest
  | If (_, _, _, body) :: rest -> body_stores (body_stores acc body) rest
  | (Iset _ | Fset _) :: rest -> body_stores acc rest
  | For l :: rest -> body_stores (body_stores acc l.body) rest

let rec exp_temps acc = function
  | Itmp t -> (`I, t) :: acc
  | Ftmp t -> (`F, t) :: acc
  | Iconst _ | Fconst _ | Ivar _ -> acc
  | Iload _ | Fload _ -> acc
  | Ibin (_, l, r) | Fbin (_, l, r) -> exp_temps (exp_temps acc l) r
  | I2f e | F2i e -> exp_temps acc e

(* No temporary is read before an unconditional write in the same
   iteration, and no temporary is written under a guard. *)
let temps_straightline body =
  let module S = Set.Make (struct
    type t = [ `I | `F ] * int

    let compare = compare
  end) in
  let reads_ok written e =
    List.for_all (fun t -> S.mem t written) (exp_temps [] e)
  in
  let rec guarded_sets = function
    | [] -> false
    | (Iset _ | Fset _) :: _ -> true
    | If (_, _, _, b) :: rest -> guarded_sets b || guarded_sets rest
    | _ :: rest -> guarded_sets rest
  in
  let rec scan written = function
    | [] -> Some written
    | Iset (t, e) :: rest ->
      if reads_ok written e then scan (S.add (`I, t) written) rest else None
    | Fset (t, e) :: rest ->
      if reads_ok written e then scan (S.add (`F, t) written) rest else None
    | (Istore (_, _, e) | Fstore (_, _, e)) :: rest ->
      if reads_ok written e then scan written rest else None
    | If (_, e1, e2, body) :: rest ->
      if
        reads_ok written e1 && reads_ok written e2
        && (not (guarded_sets body))
        && scan written body <> None
      then scan written rest
      else None
    | For _ :: _ -> None
  in
  scan S.empty body <> None

let innermost_parallel spec =
  match innermost spec with
  | None -> false
  | Some l ->
    let stores = body_stores [] l.body in
    let store_arrays = List.map fst stores in
    let load_arrays = body_loads [] l.body in
    let injective (_, (aff : affine)) =
      match List.assoc_opt l.var aff.coeffs with
      | Some c -> c <> 0
      | None -> false
    in
    stores <> []
    && List.for_all injective stores
    && List.length (List.sort_uniq compare store_arrays)
       = List.length store_arrays
    && List.for_all (fun a -> not (List.mem a load_arrays)) store_arrays
    && temps_straightline l.body

(* -------------------- validation -------------------- *)

let ( let* ) = Result.bind
let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let rec fold_result f acc = function
  | [] -> Ok acc
  | x :: rest ->
    let* acc = f acc x in
    fold_result f acc rest

let iter_result f l = fold_result (fun () x -> f x) () l

let validate spec =
  let arr name = List.find_opt (fun a -> a.aname = name) spec.arrays in
  let* () =
    if spec.sname = "" then Error "empty kernel name" else Ok ()
  in
  let* () =
    let n = List.length spec.arrays in
    if n < 1 || n > max_arrays then err "%d arrays (1..%d allowed)" n max_arrays
    else Ok ()
  in
  let* () =
    let names = List.map (fun a -> a.aname) spec.arrays in
    if List.length (List.sort_uniq compare names) <> List.length names then
      Error "duplicate array names"
    else Ok ()
  in
  let* () =
    iter_result
      (fun a ->
        if a.aname = "" then Error "empty array name"
        else if a.elems < 1 || a.elems * 4 > array_slot_bytes then
          err "array %s: %d elems out of range" a.aname a.elems
        else Ok ())
      spec.arrays
  in
  (* Static range of an affine over the in-scope extents. *)
  let affine_range scope (aff : affine) =
    List.fold_left
      (fun (lo, hi) (v, c) ->
        match List.assoc_opt v scope with
        | None -> (lo, hi) (* caught separately *)
        | Some extent ->
          let a = 0 and b = extent - 1 in
          if c >= 0 then (lo + (c * a), hi + (c * b))
          else (lo + (c * b), hi + (c * a)))
      (aff.const, aff.const) aff.coeffs
  in
  let check_affine scope name (aff : affine) =
    let vars = List.map fst aff.coeffs in
    let* () =
      if List.length (List.sort_uniq compare vars) <> List.length vars then
        err "%s: duplicate variable in index" name
      else Ok ()
    in
    let* () =
      iter_result
        (fun (v, c) ->
          if not (List.mem_assoc v scope) then
            err "%s: unbound variable %s" name v
          else if abs c > 4096 then err "%s: coefficient %d too large" name c
          else Ok ())
        aff.coeffs
    in
    let* () =
      if abs aff.const > 511 then err "%s: index constant %d too large" name aff.const
      else Ok ()
    in
    match arr name with
    | None -> err "unknown array %s" name
    | Some a ->
      let lo, hi = affine_range scope aff in
      if lo < 0 || hi >= a.elems then
        err "%s: index range [%d, %d] escapes 0..%d" name lo hi (a.elems - 1)
      else Ok (a.dtype)
  in
  (* Type-check an expression; returns its dtype and scratch-slot need. *)
  let rec check_exp scope e =
    match e with
    | Iconst c ->
      if abs c > 32767 then err "integer constant %d out of range" c
      else Ok (I32, 1)
    | Fconst f ->
      if f <> Machine.round32 f then Error "float constant not a single"
      else if Float.is_nan f || abs_float f > 1e9 then
        Error "float constant out of range"
      else Ok (F32, 1)
    | Ivar v ->
      if List.mem_assoc v scope then Ok (I32, 1) else err "unbound variable %s" v
    | Itmp t | Ftmp t ->
      if t < 0 || t >= max_temps then err "temporary %d out of range" t
      else Ok ((match e with Itmp _ -> I32 | _ -> F32), 1)
    | Iload (a, aff) ->
      let* d = check_affine scope a aff in
      if d <> I32 then err "iload from float array %s" a else Ok (I32, 1)
    | Fload (a, aff) ->
      let* d = check_affine scope a aff in
      if d <> F32 then err "fload from int array %s" a else Ok (F32, 1)
    | Ibin (_, l, r) ->
      let* dl, nl = check_exp scope l in
      let* dr, nr = check_exp scope r in
      if dl <> I32 || dr <> I32 then Error "integer op on float operand"
      else Ok (I32, max nl (1 + nr))
    | Fbin (_, l, r) ->
      let* dl, nl = check_exp scope l in
      let* dr, nr = check_exp scope r in
      if dl <> F32 || dr <> F32 then Error "float op on integer operand"
      else Ok (F32, max nl (1 + nr))
    | I2f e ->
      let* d, n = check_exp scope e in
      if d <> I32 then Error "i2f of float" else Ok (F32, n)
    | F2i e ->
      let* d, n = check_exp scope e in
      if d <> F32 then Error "f2i of integer" else Ok (I32, n)
  in
  let check_exp_need scope e expect =
    let* d, n = check_exp scope e in
    if d <> expect then Error "expression type mismatch"
    else if n > max_scratch then err "expression needs %d scratch slots (max %d)" n max_scratch
    else Ok ()
  in
  let rec check_body scope ~depth ~in_guard stmts =
    let fors = List.filter (function For _ -> true | _ -> false) stmts in
    let* () =
      if List.length fors > 1 then Error "more than one loop at a nesting level"
      else Ok ()
    in
    iter_result
      (fun s ->
        match s with
        | Iset (t, e) ->
          if t < 0 || t >= max_temps then err "temporary %d out of range" t
          else check_exp_need scope e I32
        | Fset (t, e) ->
          if t < 0 || t >= max_temps then err "temporary %d out of range" t
          else check_exp_need scope e F32
        | Istore (a, aff, e) ->
          let* d = check_affine scope a aff in
          if d <> I32 then err "istore to float array %s" a
          else check_exp_need scope e I32
        | Fstore (a, aff, e) ->
          let* d = check_affine scope a aff in
          if d <> F32 then err "fstore to int array %s" a
          else check_exp_need scope e F32
        | If (_, e1, e2, body) ->
          if in_guard then Error "nested guards"
          else
            let* () = check_exp_need scope e1 I32 in
            let* () = check_exp_need scope e2 I32 in
            let* () =
              if List.exists (function For _ -> true | _ -> false) body then
                Error "loop under a guard"
              else Ok ()
            in
            check_body scope ~depth ~in_guard:true body
        | For l ->
          if in_guard then Error "loop under a guard"
          else if depth >= max_depth then err "loop nest deeper than %d" max_depth
          else if l.extent < 1 || l.extent > max_extent then
            err "loop %s: extent %d out of range" l.var l.extent
          else if l.var = "" then Error "empty loop variable"
          else if List.mem_assoc l.var scope then err "shadowed variable %s" l.var
          else check_body ((l.var, l.extent) :: scope) ~depth:(depth + 1) ~in_guard:false l.body)
      stmts
  in
  let* () =
    match spec.body with
    | [ For _ ] -> Ok ()
    | _ -> Error "kernel body must be exactly one top-level loop"
  in
  let* () = check_body [] ~depth:0 ~in_guard:false spec.body in
  let rec volume acc = function
    | For l :: rest -> volume (volume (acc * l.extent) l.body) rest
    | _ :: rest -> volume acc rest
    | [] -> acc
  in
  let vol = volume 1 spec.body in
  if vol > max_volume then err "iteration space %d too large (max %d)" vol max_volume
  else Ok ()

(* -------------------- layout + execution -------------------- *)

let base_of spec name =
  let rec go i = function
    | [] -> invalid_arg ("Tile_dsl.base_of: " ^ name)
    | a :: _ when a.aname = name -> array_base + (i * array_slot_bytes)
    | _ :: rest -> go (i + 1) rest
  in
  go 0 spec.arrays

let setup spec mem =
  let rng = Prng.create (spec.seed lxor 0x7113_6e57) in
  List.iter
    (fun a ->
      if a.input then
        let base = base_of spec a.aname in
        match a.dtype with
        | I32 ->
          Main_memory.blit_words mem base
            (Array.init a.elems (fun _ -> Prng.int_in rng (-512) 511))
        | F32 ->
          Main_memory.blit_floats mem base
            (Array.init a.elems (fun _ ->
                 Machine.round32 (Prng.float_in rng (-2.0) 2.0))))
    spec.arrays

let rop_of = function
  | Add -> Isa.ADD
  | Sub -> Isa.SUB
  | Mul -> Isa.MUL
  | And -> Isa.AND
  | Or -> Isa.OR
  | Xor -> Isa.XOR

let fop_of = function
  | Fadd -> Isa.FADD
  | Fsub -> Isa.FSUB
  | Fmul -> Isa.FMUL
  | Fmin -> Isa.FMIN
  | Fmax -> Isa.FMAX

let bop_of = function Lt -> Isa.BLT | Ge -> Isa.BGE | Eq -> Isa.BEQ | Ne -> Isa.BNE

let eval spec mem =
  let itmp = Array.make max_temps 0 in
  let ftmp = Array.make max_temps 0.0 in
  let addr_of env spec_name (aff : affine) =
    let e =
      List.fold_left
        (fun acc (v, c) -> acc + (c * List.assoc v env))
        aff.const aff.coeffs
    in
    base_of spec spec_name + (4 * e)
  in
  let rec ieval env = function
    | Iconst c -> Machine.to_s32 c
    | Ivar v -> List.assoc v env
    | Itmp t -> itmp.(t)
    | Iload (a, aff) -> Main_memory.load_word mem (addr_of env a aff)
    | Ibin (op, l, r) -> Interp.Alu.rtype (rop_of op) (ieval env l) (ieval env r)
    | F2i e -> Interp.Alu.fcvt_w_s (feval env e)
    | Fconst _ | Ftmp _ | Fload _ | Fbin _ | I2f _ -> assert false
  and feval env = function
    | Fconst f -> f
    | Ftmp t -> ftmp.(t)
    | Fload (a, aff) -> Main_memory.load_float32 mem (addr_of env a aff)
    | Fbin (op, l, r) -> Interp.Alu.ftype (fop_of op) (feval env l) (feval env r)
    | I2f e -> Interp.Alu.fcvt_s_w (ieval env e)
    | Iconst _ | Ivar _ | Itmp _ | Iload _ | Ibin _ | F2i _ -> assert false
  in
  let rec run env stmts =
    List.iter
      (fun s ->
        match s with
        | Iset (t, e) -> itmp.(t) <- ieval env e
        | Fset (t, e) -> ftmp.(t) <- feval env e
        | Istore (a, aff, e) ->
          Main_memory.store_word mem (addr_of env a aff) (ieval env e)
        | Fstore (a, aff, e) ->
          Main_memory.store_float32 mem (addr_of env a aff) (feval env e)
        | If (c, e1, e2, body) ->
          if Interp.Alu.branch_taken (bop_of c) (ieval env e1) (ieval env e2)
          then run env body
        | For l ->
          for i = 0 to l.extent - 1 do
            run ((l.var, i) :: env) l.body
          done)
      stmts
  in
  run [] spec.body

let check spec mem =
  let ref_mem = Main_memory.create ~size:(Main_memory.size mem) () in
  setup spec ref_mem;
  eval spec ref_mem;
  let rec arrays_ok = function
    | [] -> Ok ()
    | a :: rest ->
      let base = base_of spec a.aname in
      let got = Main_memory.read_words mem base a.elems in
      let want = Main_memory.read_words ref_mem base a.elems in
      let bad = ref (-1) in
      Array.iteri (fun i w -> if !bad < 0 && w <> want.(i) then bad := i) got;
      if !bad >= 0 then
        err "%s[%d]: got 0x%08x want 0x%08x" a.aname !bad
          (got.(!bad) land 0xFFFFFFFF)
          (want.(!bad) land 0xFFFFFFFF)
      else arrays_ok rest
  in
  arrays_ok spec.arrays

(* -------------------- printing -------------------- *)

let ibin_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | And -> "&" | Or -> "|" | Xor -> "^"

let fbin_name = function
  | Fadd -> "+." | Fsub -> "-." | Fmul -> "*." | Fmin -> "min" | Fmax -> "max"

let cmp_name = function Lt -> "<" | Ge -> ">=" | Eq -> "==" | Ne -> "!="

let pp_affine ppf (aff : affine) =
  let parts =
    List.map (fun (v, c) -> if c = 1 then v else Printf.sprintf "%d%s" c v) aff.coeffs
    @ (if aff.const <> 0 || aff.coeffs = [] then [ string_of_int aff.const ] else [])
  in
  Format.fprintf ppf "%s" (String.concat "+" parts)

let rec pp_exp ppf = function
  | Iconst c -> Format.fprintf ppf "%d" c
  | Fconst f -> Format.fprintf ppf "%h" f
  | Ivar v -> Format.fprintf ppf "%s" v
  | Itmp t -> Format.fprintf ppf "t%d" t
  | Ftmp t -> Format.fprintf ppf "f%d" t
  | Iload (a, aff) | Fload (a, aff) -> Format.fprintf ppf "%s[%a]" a pp_affine aff
  | Ibin (op, l, r) ->
    Format.fprintf ppf "(%a %s %a)" pp_exp l (ibin_name op) pp_exp r
  | Fbin (op, l, r) ->
    Format.fprintf ppf "(%a %s %a)" pp_exp l (fbin_name op) pp_exp r
  | I2f e -> Format.fprintf ppf "i2f(%a)" pp_exp e
  | F2i e -> Format.fprintf ppf "f2i(%a)" pp_exp e

let rec pp_stmt indent ppf s =
  let pad = String.make indent ' ' in
  match s with
  | Iset (t, e) -> Format.fprintf ppf "%st%d = %a@," pad t pp_exp e
  | Fset (t, e) -> Format.fprintf ppf "%sf%d = %a@," pad t pp_exp e
  | Istore (a, aff, e) | Fstore (a, aff, e) ->
    Format.fprintf ppf "%s%s[%a] = %a@," pad a pp_affine aff pp_exp e
  | If (c, e1, e2, body) ->
    Format.fprintf ppf "%sif %a %s %a {@," pad pp_exp e1 (cmp_name c) pp_exp e2;
    List.iter (pp_stmt (indent + 2) ppf) body;
    Format.fprintf ppf "%s}@," pad
  | For l ->
    Format.fprintf ppf "%sfor %s < %d%s {@," pad l.var l.extent
      (match l.tile_tag with Some v -> " (tile of " ^ v ^ ")" | None -> "");
    List.iter (pp_stmt (indent + 2) ppf) l.body;
    Format.fprintf ppf "%s}@," pad

let pp ppf spec =
  Format.fprintf ppf "@[<v>kernel %s (seed %d)@," spec.sname spec.seed;
  List.iter
    (fun a ->
      Format.fprintf ppf "  %s %s[%d]%s@,"
        (match a.dtype with I32 -> "i32" | F32 -> "f32")
        a.aname a.elems
        (if a.input then " (input)" else ""))
    spec.arrays;
  List.iter (pp_stmt 2 ppf) spec.body;
  Format.fprintf ppf "@]"

let to_string spec = Format.asprintf "%a" pp spec

(* -------------------- JSON -------------------- *)

let affine_to_json (aff : affine) =
  Json.Assoc
    [
      ("c", Json.List (List.map (fun (v, c) -> Json.List [ Json.String v; Json.Int c ]) aff.coeffs));
      ("k", Json.Int aff.const);
    ]

let float_bits f = Int32.to_int (Int32.bits_of_float f) land 0xFFFFFFFF
let bits_float b = Int32.float_of_bits (Int32.of_int b)

let rec exp_to_json = function
  | Iconst c -> Json.List [ Json.String "ic"; Json.Int c ]
  | Fconst f -> Json.List [ Json.String "fc"; Json.Int (float_bits f) ]
  | Ivar v -> Json.List [ Json.String "iv"; Json.String v ]
  | Itmp t -> Json.List [ Json.String "it"; Json.Int t ]
  | Ftmp t -> Json.List [ Json.String "ft"; Json.Int t ]
  | Iload (a, aff) -> Json.List [ Json.String "ild"; Json.String a; affine_to_json aff ]
  | Fload (a, aff) -> Json.List [ Json.String "fld"; Json.String a; affine_to_json aff ]
  | Ibin (op, l, r) ->
    Json.List
      [
        Json.String "ib";
        Json.String (match op with Add -> "add" | Sub -> "sub" | Mul -> "mul"
                     | And -> "and" | Or -> "or" | Xor -> "xor");
        exp_to_json l; exp_to_json r;
      ]
  | Fbin (op, l, r) ->
    Json.List
      [
        Json.String "fb";
        Json.String (match op with Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul"
                     | Fmin -> "fmin" | Fmax -> "fmax");
        exp_to_json l; exp_to_json r;
      ]
  | I2f e -> Json.List [ Json.String "i2f"; exp_to_json e ]
  | F2i e -> Json.List [ Json.String "f2i"; exp_to_json e ]

let rec stmt_to_json = function
  | Iset (t, e) -> Json.List [ Json.String "iset"; Json.Int t; exp_to_json e ]
  | Fset (t, e) -> Json.List [ Json.String "fset"; Json.Int t; exp_to_json e ]
  | Istore (a, aff, e) ->
    Json.List [ Json.String "ist"; Json.String a; affine_to_json aff; exp_to_json e ]
  | Fstore (a, aff, e) ->
    Json.List [ Json.String "fst"; Json.String a; affine_to_json aff; exp_to_json e ]
  | If (c, e1, e2, body) ->
    Json.List
      [
        Json.String "if";
        Json.String (match c with Lt -> "lt" | Ge -> "ge" | Eq -> "eq" | Ne -> "ne");
        exp_to_json e1; exp_to_json e2;
        Json.List (List.map stmt_to_json body);
      ]
  | For l ->
    Json.List
      [
        Json.String "for";
        Json.String l.var;
        Json.Int l.extent;
        (match l.tile_tag with Some v -> Json.String v | None -> Json.Null);
        Json.List (List.map stmt_to_json l.body);
      ]

let to_json spec =
  Json.Assoc
    [
      ("name", Json.String spec.sname);
      ("seed", Json.Int spec.seed);
      ( "arrays",
        Json.List
          (List.map
             (fun a ->
               Json.Assoc
                 [
                   ("name", Json.String a.aname);
                   ("dtype", Json.String (match a.dtype with I32 -> "i32" | F32 -> "f32"));
                   ("input", Json.Bool a.input);
                   ("elems", Json.Int a.elems);
                 ])
             spec.arrays) );
      ("body", Json.List (List.map stmt_to_json spec.body));
    ]

exception Bad of string

let of_json j =
  let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  let str = function Json.String s -> s | _ -> fail "expected string" in
  let int = function Json.Int n -> n | j -> (match Json.to_int j with Some n -> n | None -> fail "expected int") in
  let affine = function
    | Json.Assoc _ as a ->
      let coeffs =
        match Json.member "c" a with
        | Some (Json.List l) ->
          List.map
            (function
              | Json.List [ v; c ] -> (str v, int c)
              | _ -> fail "bad coeff")
            l
        | _ -> fail "bad affine"
      in
      let const = match Json.member "k" a with Some k -> int k | None -> fail "bad affine" in
      { coeffs; const }
    | _ -> fail "bad affine"
  in
  let rec exp = function
    | Json.List (Json.String tag :: rest) -> (
      match (tag, rest) with
      | "ic", [ c ] -> Iconst (int c)
      | "fc", [ b ] -> Fconst (bits_float (int b))
      | "iv", [ v ] -> Ivar (str v)
      | "it", [ t ] -> Itmp (int t)
      | "ft", [ t ] -> Ftmp (int t)
      | "ild", [ a; aff ] -> Iload (str a, affine aff)
      | "fld", [ a; aff ] -> Fload (str a, affine aff)
      | "ib", [ op; l; r ] ->
        let op =
          match str op with
          | "add" -> Add | "sub" -> Sub | "mul" -> Mul
          | "and" -> And | "or" -> Or | "xor" -> Xor
          | s -> fail "bad ibin %s" s
        in
        Ibin (op, exp l, exp r)
      | "fb", [ op; l; r ] ->
        let op =
          match str op with
          | "fadd" -> Fadd | "fsub" -> Fsub | "fmul" -> Fmul
          | "fmin" -> Fmin | "fmax" -> Fmax
          | s -> fail "bad fbin %s" s
        in
        Fbin (op, exp l, exp r)
      | "i2f", [ e ] -> I2f (exp e)
      | "f2i", [ e ] -> F2i (exp e)
      | t, _ -> fail "bad expression tag %s" t)
    | _ -> fail "bad expression"
  in
  let rec stmt = function
    | Json.List (Json.String tag :: rest) -> (
      match (tag, rest) with
      | "iset", [ t; e ] -> Iset (int t, exp e)
      | "fset", [ t; e ] -> Fset (int t, exp e)
      | "ist", [ a; aff; e ] -> Istore (str a, affine aff, exp e)
      | "fst", [ a; aff; e ] -> Fstore (str a, affine aff, exp e)
      | "if", [ c; e1; e2; Json.List body ] ->
        let c =
          match str c with
          | "lt" -> Lt | "ge" -> Ge | "eq" -> Eq | "ne" -> Ne
          | s -> fail "bad cmp %s" s
        in
        If (c, exp e1, exp e2, List.map stmt body)
      | "for", [ v; e; tag; Json.List body ] ->
        For
          {
            var = str v;
            extent = int e;
            tile_tag = (match tag with Json.Null -> None | t -> Some (str t));
            body = List.map stmt body;
          }
      | t, _ -> fail "bad statement tag %s" t)
    | _ -> fail "bad statement"
  in
  try
    let sname = match Json.member "name" j with Some s -> str s | None -> fail "missing name" in
    let seed = match Json.member "seed" j with Some s -> int s | None -> fail "missing seed" in
    let arrays =
      match Json.member "arrays" j with
      | Some (Json.List l) ->
        List.map
          (fun a ->
            {
              aname = (match Json.member "name" a with Some s -> str s | None -> fail "array name");
              dtype =
                (match Json.member "dtype" a with
                | Some (Json.String "i32") -> I32
                | Some (Json.String "f32") -> F32
                | _ -> fail "array dtype");
              input = (match Json.member "input" a with Some (Json.Bool b) -> b | _ -> fail "array input");
              elems = (match Json.member "elems" a with Some e -> int e | None -> fail "array elems");
            })
          l
      | _ -> fail "missing arrays"
    in
    let body =
      match Json.member "body" j with
      | Some (Json.List l) -> List.map stmt l
      | _ -> fail "missing body"
    in
    Ok { sname; seed; arrays; body }
  with Bad m -> Error m

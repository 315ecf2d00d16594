(** Welch's unequal-variance t-test, used for Table 7's significance
    column (the paper greys out results that are not significant at
    p = 0.01).

    The two-sided p-value needs the Student-t CDF, computed through the
    regularized incomplete beta function I_x(a, b) with the standard
    continued-fraction evaluation (Lentz's algorithm). *)

(* [Float.pi], without linking [Float] (see [Json.add_float]) *)
let pi = 0x1.921fb54442d18p+1

let rec log_gamma x =
  (* Lanczos approximation, g = 7, n = 9; accurate to ~15 digits. *)
  let coeffs =
    [|
      0.99999999999980993; 676.5203681218851; -1259.1392167224028;
      771.32342877765313; -176.61502916214059; 12.507343278686905;
      -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7;
    |]
  in
  if x < 0.5 then
    (* reflection formula *)
    log (pi /. sin (pi *. x)) -. log_gamma_pos (1.0 -. x) coeffs
  else log_gamma_pos x coeffs

and log_gamma_pos x coeffs =
  let x = x -. 1.0 in
  let a = ref coeffs.(0) in
  let t = x +. 7.5 in
  for i = 1 to 8 do
    a := !a +. (coeffs.(i) /. (x +. float_of_int i))
  done;
  (0.5 *. log (2.0 *. pi)) +. ((x +. 0.5) *. log t) -. t +. log !a

(* Continued fraction for the incomplete beta function (Lentz). *)
let betacf a b x =
  let max_iter = 200 in
  let eps = 3e-12 in
  let fpmin = 1e-300 in
  let qab = a +. b and qap = a +. 1.0 and qam = a -. 1.0 in
  let c = ref 1.0 in
  let d = ref (1.0 -. (qab *. x /. qap)) in
  if abs_float !d < fpmin then d := fpmin;
  d := 1.0 /. !d;
  let h = ref !d in
  let m = ref 1 in
  let continue = ref true in
  while !continue && !m <= max_iter do
    let mf = float_of_int !m in
    let m2 = 2.0 *. mf in
    (* even step *)
    let aa = mf *. (b -. mf) *. x /. ((qam +. m2) *. (a +. m2)) in
    d := 1.0 +. (aa *. !d);
    if abs_float !d < fpmin then d := fpmin;
    c := 1.0 +. (aa /. !c);
    if abs_float !c < fpmin then c := fpmin;
    d := 1.0 /. !d;
    h := !h *. !d *. !c;
    (* odd step *)
    let aa =
      -.(a +. mf) *. (qab +. mf) *. x /. ((a +. m2) *. (qap +. m2))
    in
    d := 1.0 +. (aa *. !d);
    if abs_float !d < fpmin then d := fpmin;
    c := 1.0 +. (aa /. !c);
    if abs_float !c < fpmin then c := fpmin;
    d := 1.0 /. !d;
    let del = !d *. !c in
    h := !h *. del;
    if abs_float (del -. 1.0) < eps then continue := false;
    incr m
  done;
  !h

(** Regularized incomplete beta I_x(a, b). *)
let incomplete_beta a b x =
  if x <= 0.0 then 0.0
  else if x >= 1.0 then 1.0
  else begin
    let ln_front =
      log_gamma (a +. b) -. log_gamma a -. log_gamma b
      +. (a *. log x)
      +. (b *. log (1.0 -. x))
    in
    let front = exp ln_front in
    if x < (a +. 1.0) /. (a +. b +. 2.0) then front *. betacf a b x /. a
    else 1.0 -. (front *. betacf b a (1.0 -. x) /. b)
  end

(** Two-sided p-value of Student's t with [df] degrees of freedom. *)
let t_two_sided ~t ~df =
  if df <= 0.0 then 1.0
  else incomplete_beta (df /. 2.0) 0.5 (df /. (df +. (t *. t)))

type result = {
  t_stat : float;
  df : float;
  p_value : float;
  significant : bool;  (** at the paper's p = 0.01 threshold *)
}

(** Welch's t-test on two independent samples. *)
let welch (a : float array) (b : float array) : result =
  let na = float_of_int (Array.length a) in
  let nb = float_of_int (Array.length b) in
  if na < 2.0 || nb < 2.0 then
    { t_stat = 0.0; df = 0.0; p_value = 1.0; significant = false }
  else begin
    let va = Stats.variance a /. na in
    let vb = Stats.variance b /. nb in
    let se = sqrt (va +. vb) in
    if se = 0.0 then
      let equal_means = Stats.mean a = Stats.mean b in
      {
        t_stat = (if equal_means then 0.0 else infinity);
        df = na +. nb -. 2.0;
        p_value = (if equal_means then 1.0 else 0.0);
        significant = not equal_means;
      }
    else begin
      let t = (Stats.mean a -. Stats.mean b) /. se in
      let df =
        ((va +. vb) ** 2.0)
        /. ((va ** 2.0 /. (na -. 1.0)) +. (vb ** 2.0 /. (nb -. 1.0)))
      in
      let p = t_two_sided ~t ~df in
      { t_stat = t; df; p_value = p; significant = p < 0.01 }
    end
  end

type t = O | NO | B | AE | Z | NZ | BE | A | S | NS | P | NP | L | GE | LE | G

let all = [ O; NO; B; AE; Z; NZ; BE; A; S; NS; P; NP; L; GE; LE; G ]

let negate = function
  | O -> NO
  | NO -> O
  | B -> AE
  | AE -> B
  | Z -> NZ
  | NZ -> Z
  | BE -> A
  | A -> BE
  | S -> NS
  | NS -> S
  | P -> NP
  | NP -> P
  | L -> GE
  | GE -> L
  | LE -> G
  | G -> LE

let suffix = function
  | O -> "O"
  | NO -> "NO"
  | B -> "B"
  | AE -> "AE"
  | Z -> "Z"
  | NZ -> "NZ"
  | BE -> "BE"
  | A -> "A"
  | S -> "S"
  | NS -> "NS"
  | P -> "P"
  | NP -> "NP"
  | L -> "L"
  | GE -> "GE"
  | LE -> "LE"
  | G -> "G"

let of_suffix s =
  match String.uppercase_ascii s with
  | "O" -> Some O
  | "NO" -> Some NO
  | "B" | "C" | "NAE" -> Some B
  | "AE" | "NC" | "NB" -> Some AE
  | "Z" | "E" -> Some Z
  | "NZ" | "NE" -> Some NZ
  | "BE" | "NA" -> Some BE
  | "A" | "NBE" -> Some A
  | "S" -> Some S
  | "NS" -> Some NS
  | "P" | "PE" -> Some P
  | "NP" | "PO" -> Some NP
  | "L" | "NGE" -> Some L
  | "GE" | "NL" -> Some GE
  | "LE" | "NG" -> Some LE
  | "G" | "NLE" -> Some G
  | _ -> None

let equal (a : t) (b : t) = a = b

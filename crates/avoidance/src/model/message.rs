//! Messages exchanged over the streaming channels.

/// The payload carried by a data message.  The model only cares about
/// sequence numbers, so the payload is an opaque 64-bit value that
/// behaviours may use as they wish (examples store pixel counts, scores,
/// byte offsets, ...).
pub type Payload = u64;

/// A message travelling on a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Message {
    /// A real data message produced by the application at this sequence
    /// number.
    Data {
        /// The sequence number of the input this message derives from.
        seq: u64,
        /// Application payload.
        payload: Payload,
    },
    /// A content-free dummy message inserted by the deadlock-avoidance
    /// wrapper; its sequence number is that of an input that was filtered.
    Dummy {
        /// The sequence number of the filtered input.
        seq: u64,
    },
    /// End of stream: no message with a finite sequence number will follow.
    Eos,
}

impl Message {
    /// The sequence number of the message; `u64::MAX` for end-of-stream,
    /// which makes the "head of every channel has sequence ≥ i" firing rule
    /// uniform.
    pub fn seq(&self) -> u64 {
        match self {
            Message::Data { seq, .. } | Message::Dummy { seq } => *seq,
            Message::Eos => u64::MAX,
        }
    }

    /// The same message `by` sequence numbers later (end-of-stream has none).
    pub fn shifted(self, by: u64) -> Message {
        match self {
            Message::Data { seq, payload } => Message::Data { seq: seq + by, payload },
            Message::Dummy { seq } => Message::Dummy { seq: seq + by },
            Message::Eos => Message::Eos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_numbers() {
        assert_eq!(Message::Data { seq: 3, payload: 9 }.seq(), 3);
        assert_eq!(Message::Dummy { seq: 5 }.seq(), 5);
        assert_eq!(Message::Eos.seq(), u64::MAX);
    }

    #[test]
    fn message_is_small() {
        assert!(std::mem::size_of::<Message>() <= 24);
    }
}
